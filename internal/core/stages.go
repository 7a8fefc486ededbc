package core

import (
	"context"
	"runtime/pprof"
)

// Profiler stage labels. Each solver stage tags its goroutine with a
// stage=<name> pprof label so CPU profiles attribute rebuild time to
// the enumerate/seeds/augment/qr phases and epoch serving to solve,
// matching the stage split of EpochInfo. The label contexts are
// built once and applied with SetGoroutineLabels directly — pprof.Do
// would allocate a labelled context per call, which the warm solve path
// cannot afford.
var stageCtx = func() map[string]context.Context {
	m := map[string]context.Context{}
	for _, s := range []string{"enumerate", "seeds", "augment", "qr", "solve"} {
		m[s] = pprof.WithLabels(context.Background(), pprof.Labels("stage", s))
	}
	return m
}()

var noStageCtx = context.Background()

// setStage tags the calling goroutine with a solver stage label.
func setStage(name string) { pprof.SetGoroutineLabels(stageCtx[name]) }

// clearStage removes the stage label from the calling goroutine.
func clearStage() { pprof.SetGoroutineLabels(noStageCtx) }

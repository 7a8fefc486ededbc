package server

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// bigTopology builds a Sparse overlay large enough that one epoch solve
// at MaxSubsetSize 3 takes hundreds of milliseconds, so a mid-solve
// cancellation is unambiguous.
func bigTopology(t testing.TB) *topology.Topology {
	t.Helper()
	scale := experiment.Small()
	scale.SparseNumAS = 160
	scale.SparsePaths = 800
	top, err := experiment.BuildTopology(experiment.Sparse, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func ingestSimulated(t testing.TB, s *Server, top *topology.Topology, intervals int) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*bitset.Set, 0, intervals)
	for ti := 0; ti < intervals; ti++ {
		batch = append(batch, model.Interval(ti, rng).CongestedPaths)
	}
	s.Ingest(batch)
}

// pollCtx is the logical clock of the cancellation test: a context that
// counts the solver's Err() polls (the solver checks ctx.Err() between
// units of work and never selects on Done) and reports
// context.Canceled from its cancelAt-th poll on; 0 never cancels.
type pollCtx struct {
	context.Context
	cancelAt int64
	polls    atomic.Int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// A mid-solve context cancellation must return promptly with ctx.Err(),
// leave the previously published snapshot current, and not consume an
// epoch. "Promptly" is counted, not timed: the cancelled solve stops
// polling its context well before an uncancelled one would have.
func TestEpochSolveCancellation(t *testing.T) {
	top := bigTopology(t)
	cfg := Config{
		WindowSize: 600,
		SolverOpts: []estimator.Option{
			estimator.WithMaxSubsetSize(3),
			estimator.WithAlwaysGoodTol(0.02),
		},
	}
	s := newServer(t, top, cfg)
	defer s.Close()
	ingestSimulated(t, s, top, 600)

	// Reference epoch: the uncancelled cold solve, which also counts how
	// often a full solve polls its context.
	ref := &pollCtx{Context: context.Background()}
	first := s.Recompute(ref)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", first.Epoch)
	}
	full := ref.polls.Load()
	if full < 20 {
		t.Fatalf("full solve polled its context %d times; too few to cancel mid-solve", full)
	}

	// A re-solve over the unchanged window warm-starts off the carried
	// plan instead of repeating the structural build.
	warm := s.Recompute(context.Background())
	if warm.Err != nil || warm.Epoch != 2 {
		t.Fatalf("warm epoch = %d (err %v), want 2", warm.Epoch, warm.Err)
	}
	if !warm.Warm {
		t.Fatal("re-solve over the unchanged window did not warm-start")
	}

	// Cancel a tenth of the way into a cold structural solve: a fresh
	// server (no carried plan) over the same stream.
	s2 := newServer(t, top, cfg)
	defer s2.Close()
	ingestSimulated(t, s2, top, 600)
	ctx := &pollCtx{Context: context.Background(), cancelAt: full / 10}
	snap := s2.Recompute(ctx)
	if !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", snap.Err)
	}
	if snap.Epoch != 0 {
		t.Fatalf("cancelled solve consumed epoch %d", snap.Epoch)
	}
	if got := ctx.polls.Load(); got < ctx.cancelAt || got >= full {
		t.Fatalf("solve cancelled at poll %d made %d polls; an uncancelled one makes %d — not prompt", ctx.cancelAt, got, full)
	}
	if got := s2.Latest(); got != nil {
		t.Fatalf("cancelled solve published a snapshot")
	}

	// The next solve publishes normally: epochs skip nothing.
	second := s2.Recompute(context.Background())
	if second.Err != nil || second.Epoch != 1 {
		t.Fatalf("post-cancellation epoch = %d (err %v), want 1", second.Epoch, second.Err)
	}
}

// Close must abort an in-flight epoch solve through the server's
// lifetime context rather than waiting it out.
func TestCloseCancelsInflightSolve(t *testing.T) {
	top := bigTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 600,
		SolverOpts: []estimator.Option{
			estimator.WithMaxSubsetSize(3),
			estimator.WithAlwaysGoodTol(0.02),
		},
	})
	ingestSimulated(t, s, top, 600)

	done := make(chan *Snapshot, 1)
	go func() { done <- s.Recompute(nil) }() // nil ctx = server lifetime
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case snap := <-done:
		if snap.Err == nil {
			t.Skip("solve completed before Close on this machine; nothing to abort")
		}
		if !errors.Is(snap.Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", snap.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solve did not abort on Close")
	}
}

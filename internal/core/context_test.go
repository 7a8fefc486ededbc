package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/stream"
	"repro/internal/topology"
)

// A context cancelled before the solve starts must surface as ctx.Err()
// from every phase entry point, without computing anything.
func TestComputeCancelledContext(t *testing.T) {
	top := topology.Fig1Case1()
	rec := stream.NewWindow(top.NumPaths(), 200)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cong := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if rng.Float64() < 0.3 {
				cong.Add(p)
			}
		}
		rec.Add(cong)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Compute(ctx, top, rec, Config{MaxSubsetSize: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled solve returned a result")
	}
	// A nil context means Background and must still solve.
	if _, err := Compute(nil, top, rec, Config{MaxSubsetSize: 2}); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
}

package probcalc

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/stream"
)

// Property: both baselines must produce bit-identical results over a
// window that has evicted a prefix of the stream and over a fresh
// window holding only the surviving tail, as an offline run would. The
// guarantee is what lets every estimator run over the live sliding
// window of the streaming service.
func TestBaselinesRecorderWindowEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		// A small random overlay and a random observation stream.
		cfg := brite.DefaultConfig()
		cfg.NumAS = 8 + rng.Intn(10)
		cfg.RoutersPerAS = 3
		top, _, err := brite.ASLevelTopology(cfg, 20+rng.Intn(40), rng)
		if err != nil {
			t.Fatal(err)
		}
		total := 50 + rng.Intn(150)
		capacity := 20 + rng.Intn(total)
		congProb := 0.05 + 0.4*rng.Float64()

		win := stream.NewWindow(top.NumPaths(), capacity)
		var tail []*bitset.Set // the last `capacity` intervals
		for ti := 0; ti < total; ti++ {
			cong := bitset.New(top.NumPaths())
			for p := 0; p < top.NumPaths(); p++ {
				if rng.Float64() < congProb {
					cong.Add(p)
				}
			}
			win.Add(cong)
			tail = append(tail, cong)
			if len(tail) > capacity {
				tail = tail[1:]
			}
		}
		rec := stream.NewWindow(top.NumPaths(), len(tail))
		for _, iv := range tail {
			rec.Add(iv)
		}

		tol := 0.05 * rng.Float64()
		seed := rng.Int63()

		recIndep, err1 := Independence(context.Background(), top, rec,
			IndependenceConfig{AlwaysGoodTol: tol, Seed: seed})
		winIndep, err2 := Independence(context.Background(), top, win,
			IndependenceConfig{AlwaysGoodTol: tol, Seed: seed})
		if err1 != nil || err2 != nil {
			t.Fatalf("independence: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(recIndep, winIndep) {
			t.Fatalf("round %d: Independence diverges between the evicting and the fresh window", round)
		}

		recHeur, err1 := CorrelationHeuristic(context.Background(), top, rec,
			HeuristicConfig{AlwaysGoodTol: tol})
		winHeur, err2 := CorrelationHeuristic(context.Background(), top, win,
			HeuristicConfig{AlwaysGoodTol: tol})
		if err1 != nil || err2 != nil {
			t.Fatalf("heuristic: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(recHeur, winHeur) {
			t.Fatalf("round %d: Correlation-heuristic diverges between the evicting and the fresh window", round)
		}
	}
}

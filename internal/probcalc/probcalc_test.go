package probcalc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/stream"
	"repro/internal/topology"
)

// simulate produces perfect observations over Fig. 1 Case 1 where e1,
// e4 are independent with probabilities p1, p4 and e2, e3 congest
// together with probability p23 when correlated is true, or
// independently with probability p23 each when false.
func simulate(t *testing.T, p1, p23, p4 float64, correlated bool, T int, seed int64) (*topology.Topology, *stream.Window) {
	t.Helper()
	top := topology.Fig1Case1()
	rng := rand.New(rand.NewSource(seed))
	rec := stream.NewWindow(top.NumPaths(), T)
	for i := 0; i < T; i++ {
		cong := bitset.New(4)
		if rng.Float64() < p1 {
			cong.Add(0)
		}
		if correlated {
			if rng.Float64() < p23 {
				cong.Add(1)
				cong.Add(2)
			}
		} else {
			if rng.Float64() < p23 {
				cong.Add(1)
			}
			if rng.Float64() < p23 {
				cong.Add(2)
			}
		}
		if rng.Float64() < p4 {
			cong.Add(3)
		}
		congPaths := bitset.New(3)
		for p := 0; p < 3; p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}
	return top, rec
}

func TestIndependenceRecoversIndependentLinks(t *testing.T) {
	// When links really are independent, CLINK's step 1 is consistent.
	top, rec := simulate(t, 0.3, 0.25, 0.2, false, 60000, 1)
	res, err := Independence(context.Background(), top, rec, IndependenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.3, 0.25, 0.25, 0.2}
	for e, w := range want {
		if !res.Exact[e] {
			t.Fatalf("link %d not identified", e)
		}
		if math.Abs(res.Prob[e]-w) > 0.03 {
			t.Errorf("link %d: prob %.3f, want ≈%.3f", e, res.Prob[e], w)
		}
	}
}

func TestIndependenceBiasedUnderCorrelation(t *testing.T) {
	// The §3.1 example: e2 and e3 perfectly correlated. Assuming
	// independence mis-computes the probabilities (the last two
	// equations of Fig. 2(a) are wrong); the error must be visible.
	p23 := 0.4
	top, rec := simulate(t, 0.0, p23, 0.0, true, 60000, 2)
	res, err := Independence(context.Background(), top, rec, IndependenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Under perfect correlation the pair-equation system is
	// inconsistent with the product form; at least one of e2, e3 must
	// be off by a clear margin.
	errSum := math.Abs(res.Prob[1]-p23) + math.Abs(res.Prob[2]-p23)
	if errSum < 0.05 {
		t.Fatalf("independence unexpectedly accurate under correlation (total error %.3f)", errSum)
	}
}

func TestCorrelationHeuristicHandlesCorrelation(t *testing.T) {
	p1, p23, p4 := 0.3, 0.4, 0.2
	top, rec := simulate(t, p1, p23, p4, true, 60000, 3)
	res, err := CorrelationHeuristic(context.Background(), top, rec, HeuristicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{p1, p23, p23, p4}
	for e, w := range want {
		if math.Abs(res.Prob[e]-w) > 0.05 {
			t.Errorf("link %d: prob %.3f, want ≈%.3f", e, res.Prob[e], w)
		}
	}
}

func TestAlwaysGoodLinksZero(t *testing.T) {
	// p3 always good -> e3, e4 always good -> probability exactly 0.
	top := topology.Fig1Case1()
	rng := rand.New(rand.NewSource(4))
	rec := stream.NewWindow(top.NumPaths(), 3000)
	for i := 0; i < 3000; i++ {
		congPaths := bitset.New(3)
		if rng.Float64() < 0.3 {
			congPaths.Add(0)
			congPaths.Add(1)
		}
		rec.Add(congPaths)
	}
	for name, run := range map[string]func() (*LinkResult, error){
		"independence": func() (*LinkResult, error) { return Independence(context.Background(), top, rec, IndependenceConfig{}) },
		"heuristic": func() (*LinkResult, error) {
			return CorrelationHeuristic(context.Background(), top, rec, HeuristicConfig{})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range []int{2, 3} {
			if res.Prob[e] != 0 || !res.Exact[e] {
				t.Errorf("%s: always-good link %d: prob=%v exact=%v", name, e, res.Prob[e], res.Exact[e])
			}
			if res.PotentiallyCongested.Contains(e) {
				t.Errorf("%s: link %d should not be potentially congested", name, e)
			}
		}
	}
}

func TestUncoveredLinkFallback(t *testing.T) {
	links := []topology.Link{{ID: 0, AS: 0}, {ID: 1, AS: 1}}
	paths := []topology.Path{{ID: 0, Links: []int{0}}}
	top := topology.New(links, paths, nil)
	rec := stream.NewWindow(1, 2)
	rec.Add(bitset.FromIndices(1, 0))
	rec.Add(bitset.New(1))
	for name, run := range map[string]func() (*LinkResult, error){
		"independence": func() (*LinkResult, error) { return Independence(context.Background(), top, rec, IndependenceConfig{}) },
		"heuristic": func() (*LinkResult, error) {
			return CorrelationHeuristic(context.Background(), top, rec, HeuristicConfig{})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Prob[1] != 0 || res.Exact[1] {
			t.Errorf("%s: uncovered link should fall back to 0 (inexact), got %v exact=%v", name, res.Prob[1], res.Exact[1])
		}
		if math.Abs(res.Prob[0]-0.5) > 1e-9 {
			t.Errorf("%s: covered link prob = %v, want 0.5", name, res.Prob[0])
		}
	}
}

func TestMismatchedRecorderRejected(t *testing.T) {
	top := topology.Fig1Case1()
	rec := stream.NewWindow(7, 1)
	if _, err := Independence(context.Background(), top, rec, IndependenceConfig{}); err == nil {
		t.Fatal("Independence accepted mismatched store")
	}
	if _, err := CorrelationHeuristic(context.Background(), top, rec, HeuristicConfig{}); err == nil {
		t.Fatal("CorrelationHeuristic accepted mismatched store")
	}
}

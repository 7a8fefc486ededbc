package inference

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/probcalc"
	"repro/internal/stream"
	"repro/internal/topology"
)

func TestSparsityToyExample(t *testing.T) {
	// §2/§3.1: all three paths congested -> Sparsity infers {e1, e3}
	// (each participates in two congested paths).
	top := topology.Fig1Case1()
	s := NewSparsity()
	if err := s.Prepare(context.Background(), top, stream.NewWindow(top.NumPaths(), 1)); err != nil {
		t.Fatal(err)
	}
	got := s.Infer(bitset.FromIndices(3, 0, 1, 2))
	if got.String() != "{0, 2}" {
		t.Fatalf("Sparsity inferred %s, want {e1,e3} = {0, 2}", got)
	}
}

func TestSparsityMissesEdgeCongestion(t *testing.T) {
	// §3.1: when e2 and e3 are the congested links, all paths congest
	// and Sparsity still picks {e1, e3}: one miss, one false blame.
	top := topology.Fig1Case1()
	s := NewSparsity()
	_ = s.Prepare(context.Background(), top, stream.NewWindow(top.NumPaths(), 1))
	inferred := s.Infer(bitset.FromIndices(3, 0, 1, 2))
	actual := bitset.FromIndices(4, 1, 2)
	dr, _ := metrics.DetectionRate(inferred, actual)
	fpr, _ := metrics.FalsePositiveRate(inferred, actual)
	if dr != 0.5 || fpr != 0.5 {
		t.Fatalf("dr=%v fpr=%v, want 0.5, 0.5", dr, fpr)
	}
}

func TestExonerationBySeparability(t *testing.T) {
	// Links on good paths are never blamed, by any algorithm.
	top := topology.Fig1Case1()
	rec := recordCorrelated(top, 0.4, 600, 1)
	algs := []Algorithm{
		NewSparsity(),
		NewBayesianIndependence(probcalc.IndependenceConfig{}),
		NewBayesianCorrelation(core.Config{}),
	}
	for _, a := range algs {
		if err := a.Prepare(context.Background(), top, rec); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		// Only p1 congested: p2, p3 good exonerate e1, e3, e4.
		got := a.Infer(bitset.FromIndices(3, 0))
		if got.Contains(0) || got.Contains(2) || got.Contains(3) {
			t.Errorf("%s blamed an exonerated link: %s", a.Name(), got)
		}
		if !got.Contains(1) {
			t.Errorf("%s failed to blame the only possible culprit e2: %s", a.Name(), got)
		}
	}
}

// recordCorrelated simulates Fig. 1 Case 1 where e2 and e3 are
// perfectly correlated with congestion probability p and e1, e4 are
// always good (the §3.1 example that defeats Bayesian-Independence).
func recordCorrelated(top *topology.Topology, p float64, T int, seed int64) *stream.Window {
	rng := rand.New(rand.NewSource(seed))
	rec := stream.NewWindow(top.NumPaths(), T)
	for i := 0; i < T; i++ {
		congPaths := bitset.New(3)
		if rng.Float64() < p {
			congPaths.Add(0)
			congPaths.Add(1)
			congPaths.Add(2)
		}
		rec.Add(congPaths)
	}
	return rec
}

func TestBayesianCorrelationBeatsIndependenceUnderCorrelation(t *testing.T) {
	// The paper's §3.1 example: e2, e3 perfectly correlated. When all
	// paths congest, Bayesian-Independence mis-learns the probabilities
	// and picks {e1, e3}; Bayesian-Correlation identifies {e2, e3}.
	top := topology.Fig1Case1()
	rec := recordCorrelated(top, 0.4, 3000, 2)

	bi := NewBayesianIndependence(probcalc.IndependenceConfig{})
	if err := bi.Prepare(context.Background(), top, rec); err != nil {
		t.Fatal(err)
	}
	bc := NewBayesianCorrelation(core.Config{})
	if err := bc.Prepare(context.Background(), top, rec); err != nil {
		t.Fatal(err)
	}

	actual := bitset.FromIndices(4, 1, 2)
	obs := bitset.FromIndices(3, 0, 1, 2)

	gotBC := bc.Infer(obs)
	if !gotBC.Equal(actual) {
		t.Fatalf("Bayesian-Correlation inferred %s, want {e2,e3} = {1, 2}", gotBC)
	}
	// Bayesian-Independence mis-learns the probabilities: it must put
	// non-trivial congestion probability on the always-good links e1 or
	// e4 (the Fig. 2(a) system is inconsistent under correlation).
	if bi.probs.Prob[0] < 0.05 && bi.probs.Prob[3] < 0.05 {
		t.Fatalf("Bayesian-Independence learned probs %v; expected spurious mass on e1/e4", bi.probs.Prob)
	}
	_ = metrics.Mean{}
}

func TestBayesianIndependenceAccurateWhenIndependent(t *testing.T) {
	// With genuinely independent links the Bayesian machinery works:
	// average detection must be high over many intervals.
	top := topology.Fig1Case1()
	rng := rand.New(rand.NewSource(3))
	rec := stream.NewWindow(top.NumPaths(), 2000)
	type state struct{ links, paths *bitset.Set }
	var states []state
	probs := []float64{0.3, 0.15, 0.2, 0.25}
	for i := 0; i < 2000; i++ {
		cong := bitset.New(4)
		for e, p := range probs {
			if rng.Float64() < p {
				cong.Add(e)
			}
		}
		congPaths := bitset.New(3)
		for p := 0; p < 3; p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
		states = append(states, state{links: cong, paths: congPaths})
	}
	bi := NewBayesianIndependence(probcalc.IndependenceConfig{})
	if err := bi.Prepare(context.Background(), top, rec); err != nil {
		t.Fatal(err)
	}
	var dr metrics.Mean
	for _, st := range states {
		inferred := bi.Infer(st.paths)
		r, ok := metrics.DetectionRate(inferred, st.links)
		dr.AddIf(r, ok)
	}
	if dr.Value() < 0.7 {
		t.Fatalf("Bayesian-Independence detection %.3f under independence, want ≥ 0.7", dr.Value())
	}
}

func TestInferEmptyObservation(t *testing.T) {
	top := topology.Fig1Case1()
	for _, a := range []Algorithm{
		NewSparsity(),
		NewBayesianIndependence(probcalc.IndependenceConfig{}),
		NewBayesianCorrelation(core.Config{}),
	} {
		if err := a.Prepare(context.Background(), top, recordCorrelated(top, 0.3, 200, 4)); err != nil {
			t.Fatal(err)
		}
		if got := a.Infer(bitset.New(3)); !got.IsEmpty() {
			t.Errorf("%s inferred %s from an all-good interval", a.Name(), got)
		}
	}
}

func TestAssumptionsMatchTable2(t *testing.T) {
	// Table 2's rows per algorithm.
	cases := []struct {
		alg  Algorithm
		want map[string]bool
	}{
		{NewSparsity(), map[string]bool{"Homogeneity": true, "Independence": false, "Correlation Sets": false}},
		{NewBayesianIndependence(probcalc.IndependenceConfig{}), map[string]bool{"Independence": true, "Homogeneity": false}},
		{NewBayesianCorrelation(core.Config{}), map[string]bool{"Correlation Sets": true, "Identifiability++": true, "Independence": false}},
	}
	for _, c := range cases {
		has := map[string]bool{}
		for _, a := range c.alg.Assumptions() {
			has[a] = true
		}
		if !has["Separability"] || !has["E2E Monitoring"] {
			t.Errorf("%s must list the universal assumptions", c.alg.Name())
		}
		for k, v := range c.want {
			if has[k] != v {
				t.Errorf("%s: assumption %q = %v, want %v", c.alg.Name(), k, has[k], v)
			}
		}
	}
}

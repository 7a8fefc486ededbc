package tomography

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// advertises it: build, record, compute.
func TestFacadeEndToEnd(t *testing.T) {
	top := Fig1Case1()
	rec := NewSlidingWindow(top.NumPaths(), 20000)
	rng := rand.New(rand.NewSource(1))
	const p23 = 0.4
	for i := 0; i < 20000; i++ {
		cong := NewSet(top.NumLinks())
		if rng.Float64() < p23 {
			cong.Add(1)
			cong.Add(2)
		}
		congPaths := NewSet(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}
	est, err := NewEstimator("correlation-complete")
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), top, rec)
	if err != nil {
		t.Fatal(err)
	}
	joint, ok := res.Detail.CongestedProb(SetOf(top.NumLinks(), 1, 2))
	if !ok {
		t.Fatal("pair should be identifiable")
	}
	if math.Abs(joint-p23) > 0.03 {
		t.Fatalf("joint = %.3f, want ≈%.2f", joint, p23)
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bcfg := DefaultBriteConfig()
	bcfg.NumAS = 15
	bcfg.RoutersPerAS = 4
	top, inet, err := GenerateBrite(bcfg, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumPaths() == 0 || inet.Routers.N() == 0 {
		t.Fatal("empty generation")
	}

	tcfg := DefaultTracerouteConfig()
	tcfg.Internet.NumAS = 30
	tcfg.Internet.RoutersPerAS = 4
	tcfg.TargetPaths = 40
	campaign, err := GenerateSparse(tcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if campaign.Kept == 0 {
		t.Fatal("campaign kept nothing")
	}
}

func TestFacadeSimulationAndInference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bcfg := DefaultBriteConfig()
	bcfg.NumAS = 15
	bcfg.RoutersPerAS = 4
	top, _, err := GenerateBrite(bcfg, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(top, DefaultSimulationConfig(RandomCongestion), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewSlidingWindow(top.NumPaths(), 100)
	var lastObs Observation
	for i := 0; i < 100; i++ {
		lastObs = sim.Interval(i, rng)
		rec.Add(lastObs.CongestedPaths)
	}
	for _, alg := range []InferenceAlgorithm{
		NewSparsity(),
		NewBayesianIndependence(IndependenceConfig{AlwaysGoodTol: 0.02}),
		NewBayesianCorrelation(func() ProbabilityConfig {
			c := DefaultProbabilityConfig()
			c.AlwaysGoodTol = 0.02
			return c
		}()),
	} {
		if err := alg.Prepare(context.Background(), top, rec); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		inferred := alg.Infer(lastObs.CongestedPaths)
		if inferred == nil {
			t.Fatalf("%s returned nil", alg.Name())
		}
	}
}

// TestFacadeEstimatorRegistry drives the unified API end to end: every
// registered estimator runs over the same recorded period through the
// facade, honoring options and context.
func TestFacadeEstimatorRegistry(t *testing.T) {
	top := Fig1Case1()
	rec := NewSlidingWindow(top.NumPaths(), 1000)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		cong := NewSet(top.NumLinks())
		if rng.Float64() < 0.4 {
			cong.Add(1)
			cong.Add(2)
		}
		congPaths := NewSet(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}
	names := Estimators()
	if len(names) != 7 {
		t.Fatalf("registry has %d estimators: %v", len(names), names)
	}
	for _, name := range names {
		est, err := NewEstimator(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := est.Estimate(context.Background(), top, rec, WithMaxSubsetSize(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Algorithm != name || len(res.LinkProb) != top.NumLinks() {
			t.Fatalf("%s: malformed estimate", name)
		}
		for e, p := range res.LinkProb {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%s: link %d prob %v", name, e, p)
			}
		}
	}
	if _, err := NewEstimator("nope"); err == nil {
		t.Fatal("unknown estimator accepted")
	}
	// Options validate eagerly through the facade too.
	est, _ := NewEstimator("correlation-complete")
	if _, err := est.Estimate(context.Background(), top, rec, WithMaxSubsetSize(-1)); err == nil {
		t.Fatal("invalid option accepted")
	}
	// The correlation-complete estimate still answers joint queries.
	res, err := est.Estimate(context.Background(), top, rec)
	if err != nil {
		t.Fatal(err)
	}
	if joint, ok := res.Detail.CongestedProb(SetOf(top.NumLinks(), 1, 2)); !ok || math.Abs(joint-0.4) > 0.05 {
		t.Fatalf("joint = %v ok=%v, want ≈0.4", joint, ok)
	}
}

func TestCorrelationSetsByASFacade(t *testing.T) {
	links := []Link{{ID: 0, AS: 1}, {ID: 1, AS: 1}, {ID: 2, AS: 2}}
	sets := CorrelationSetsByAS(links)
	if len(sets) != 2 || len(sets[0]) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	top, err := NewTopology(links, []Path{{ID: 0, Links: []int{0, 1, 2}}}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if top.CorrSetOf(1) != 0 {
		t.Fatal("correlation set lookup wrong")
	}
	// Invalid input surfaces as an error, not a panic.
	if _, err := NewTopology(links, []Path{{ID: 0, Links: []int{99}}}, sets); err == nil {
		t.Fatal("dangling link reference accepted")
	}
	// The panicking form remains for literal topologies.
	if MustNewTopology(links, []Path{{ID: 0, Links: []int{0, 1, 2}}}, sets) == nil {
		t.Fatal("MustNewTopology returned nil")
	}
}

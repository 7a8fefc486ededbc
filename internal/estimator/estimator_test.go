package estimator_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/inference"
	"repro/internal/netsim"
	"repro/internal/probcalc"
	"repro/internal/stream"
	"repro/internal/topology"
)

// fixture is one topology plus a recorded monitoring period.
type fixture struct {
	name string
	top  *topology.Topology
	rec  *stream.Window
}

// fig1Fixture records correlated congestion on the paper's toy
// topology.
func fig1Fixture(name string, top *topology.Topology) fixture {
	rec := stream.NewWindow(top.NumPaths(), 2000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		cong := bitset.New(top.NumLinks())
		if rng.Float64() < 0.3 {
			cong.Add(0)
		}
		if rng.Float64() < 0.4 { // correlated pair {e2, e3}
			cong.Add(1)
			cong.Add(2)
		}
		if rng.Float64() < 0.2 {
			cong.Add(3)
		}
		congPaths := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}
	return fixture{name: name, top: top, rec: rec}
}

// briteFixture simulates one Random-Congestion monitoring period over a
// small Brite overlay (the acceptance scenario).
func briteFixture(t *testing.T) fixture {
	t.Helper()
	scale := experiment.Small()
	scale.BriteNumAS = 15
	scale.BritePaths = 60
	top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), 300)
	for ti := 0; ti < 300; ti++ {
		rec.Add(model.Interval(ti, rng).CongestedPaths)
	}
	return fixture{name: "brite", top: top, rec: rec}
}

func fixtures(t *testing.T) []fixture {
	t.Helper()
	return []fixture{
		fig1Fixture("fig1-case1", topology.Fig1Case1()),
		fig1Fixture("fig1-case2", topology.Fig1Case2()),
		briteFixture(t),
	}
}

const tol = 0.02

func opts() []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(2),
		estimator.WithAlwaysGoodTol(tol),
		estimator.WithSeed(5),
	}
}

func TestRegistry(t *testing.T) {
	want := []string{
		estimator.BayesianCorrelation,
		estimator.BayesianIndependence,
		estimator.CorrelationComplete,
		estimator.CorrelationCompleteSharded,
		estimator.CorrelationHeuristic,
		estimator.Independence,
		estimator.Sparsity,
	}
	if got := estimator.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range estimator.Names() {
		est, err := estimator.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if est.Name() != name {
			t.Fatalf("estimator %q reports name %q", name, est.Name())
		}
		if est.Description() == "" {
			t.Fatalf("estimator %q has no description", name)
		}
	}
	if _, err := estimator.New("no-such-algorithm"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// Every estimator, selected by registry name, must reproduce the
// pre-redesign output of the function/algorithm it wraps, bit for bit.
func TestEstimatorsMatchDirectCalls(t *testing.T) {
	ctx := context.Background()
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			// Correlation-complete vs core.Compute.
			res, err := core.Compute(ctx, fx.top, fx.rec, core.Config{MaxSubsetSize: 2, AlwaysGoodTol: tol})
			if err != nil {
				t.Fatal(err)
			}
			est := estimateByName(t, estimator.CorrelationComplete, fx, opts())
			for e := 0; e < fx.top.NumLinks(); e++ {
				wantP, wantX := res.LinkCongestProbOrFallback(e)
				if est.LinkProb[e] != wantP || est.LinkExact[e] != wantX {
					t.Fatalf("correlation-complete link %d: (%v,%v) != direct (%v,%v)",
						e, est.LinkProb[e], est.LinkExact[e], wantP, wantX)
				}
			}
			if len(est.Subsets) != len(res.Subsets) {
				t.Fatalf("subset count %d != %d", len(est.Subsets), len(res.Subsets))
			}
			for i, sub := range est.Subsets {
				want := res.Subsets[i]
				if sub.ID != i || sub.CorrSet != want.CorrSet || sub.Identifiable != want.Identifiable {
					t.Fatalf("subset %d metadata diverges", i)
				}
				if sub.Identifiable && sub.GoodProb != want.GoodProb {
					t.Fatalf("subset %d: good prob %v != %v", i, sub.GoodProb, want.GoodProb)
				}
				if !sub.Identifiable && !math.IsNaN(sub.GoodProb) {
					t.Fatalf("subset %d: unidentifiable but GoodProb %v", i, sub.GoodProb)
				}
			}
			if est.Rank != res.Rank || est.Nullity != res.Nullity || est.Detail == nil {
				t.Fatalf("diagnostics diverge")
			}

			// Independence vs probcalc.Independence.
			indep, err := probcalc.Independence(ctx, fx.top, fx.rec,
				probcalc.IndependenceConfig{AlwaysGoodTol: tol, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			checkLinkResult(t, estimator.Independence, estimateByName(t, estimator.Independence, fx, opts()), indep)

			// Correlation-heuristic vs probcalc.CorrelationHeuristic.
			heur, err := probcalc.CorrelationHeuristic(ctx, fx.top, fx.rec,
				probcalc.HeuristicConfig{AlwaysGoodTol: tol})
			if err != nil {
				t.Fatal(err)
			}
			checkLinkResult(t, estimator.CorrelationHeuristic, estimateByName(t, estimator.CorrelationHeuristic, fx, opts()), heur)

			// The three inference adapters vs a manual Prepare/Infer
			// replay.
			algs := map[string]inference.Algorithm{
				estimator.Sparsity: inference.NewSparsity(),
				estimator.BayesianIndependence: inference.NewBayesianIndependence(
					probcalc.IndependenceConfig{AlwaysGoodTol: tol, Seed: 5}),
				estimator.BayesianCorrelation: inference.NewBayesianCorrelation(
					core.Config{MaxSubsetSize: 2, AlwaysGoodTol: tol}),
			}
			for name, alg := range algs {
				if err := alg.Prepare(ctx, fx.top, fx.rec); err != nil {
					t.Fatal(err)
				}
				counts := make([]int, fx.top.NumLinks())
				for ti := 0; ti < fx.rec.T(); ti++ {
					alg.Infer(fx.rec.CongestedAt(ti)).ForEach(func(e int) bool {
						counts[e]++
						return true
					})
				}
				est := estimateByName(t, name, fx, opts())
				for e := range counts {
					want := float64(counts[e]) / float64(fx.rec.T())
					if est.LinkProb[e] != want {
						t.Fatalf("%s link %d: %v != blame frequency %v", name, e, est.LinkProb[e], want)
					}
				}
			}
		})
	}
}

func estimateByName(t *testing.T, name string, fx fixture, o []estimator.Option) *estimator.Estimate {
	t.Helper()
	est, err := estimator.New(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := est.Estimate(context.Background(), fx.top, fx.rec, o...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func checkLinkResult(t *testing.T, name string, est *estimator.Estimate, want *probcalc.LinkResult) {
	t.Helper()
	for e := range want.Prob {
		if est.LinkProb[e] != want.Prob[e] || est.LinkExact[e] != want.Exact[e] {
			t.Fatalf("%s link %d: (%v,%v) != direct (%v,%v)",
				name, e, est.LinkProb[e], est.LinkExact[e], want.Prob[e], want.Exact[e])
		}
	}
	if est.Subsets != nil {
		t.Fatalf("%s: per-link estimator reported subsets", name)
	}
}

// Every estimator must run over a live sliding window — one that has
// evicted earlier intervals and wrapped its ring — exactly as over a
// fresh window holding the same intervals.
func TestEstimatorsOverSlidingWindow(t *testing.T) {
	fx := briteFixture(t)
	win := stream.NewWindow(fx.top.NumPaths(), fx.rec.T())
	for ti := fx.rec.T() / 2; ti < fx.rec.T(); ti++ {
		win.Add(fx.rec.CongestedAt(ti)) // evicted by the full pass below
	}
	for ti := 0; ti < fx.rec.T(); ti++ {
		win.Add(fx.rec.CongestedAt(ti))
	}
	for _, name := range estimator.Names() {
		est, err := estimator.New(name)
		if err != nil {
			t.Fatal(err)
		}
		fromRec, err := est.Estimate(context.Background(), fx.top, fx.rec, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		fromWin, err := est.Estimate(context.Background(), fx.top, win, opts()...)
		if err != nil {
			t.Fatalf("%s over window: %v", name, err)
		}
		if !reflect.DeepEqual(fromRec.LinkProb, fromWin.LinkProb) ||
			!reflect.DeepEqual(fromRec.LinkExact, fromWin.LinkExact) {
			t.Fatalf("%s: sliding-window run diverges from fresh-window run", name)
		}
	}
}

// Options validate eagerly: a bad value is an error from Estimate
// before any computation, never a panic.
func TestOptionValidation(t *testing.T) {
	bad := []estimator.Option{
		estimator.WithMaxSubsetSize(-1),
		estimator.WithAlwaysGoodTol(-0.1),
		estimator.WithAlwaysGoodTol(1),
		estimator.WithMaxEnumPathSets(-1),
		estimator.WithPairsPerLink(-1),
		estimator.WithGlobalPairs(-2),
		estimator.WithSweeps(-1),
	}
	for i, opt := range bad {
		if _, err := estimator.Apply(opt); err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
	}
	fx := fig1Fixture("fig1", topology.Fig1Case1())
	est, err := estimator.New(estimator.CorrelationComplete)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(context.Background(), fx.top, fx.rec, estimator.WithMaxSubsetSize(-3)); err == nil {
		t.Fatal("Estimate accepted an invalid option")
	}
	// Valid edge values pass.
	if _, err := estimator.Apply(
		estimator.WithMaxSubsetSize(0),
		estimator.WithAlwaysGoodTol(0),
		estimator.WithGlobalPairs(-1),
	); err != nil {
		t.Fatal(err)
	}
}

// A cancelled context surfaces as ctx.Err() from every estimator.
func TestEstimateCancelledContext(t *testing.T) {
	fx := briteFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range estimator.Names() {
		est, err := estimator.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := est.Estimate(ctx, fx.top, fx.rec, opts()...); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// A mismatched store is rejected before computation.
func TestEstimateUniverseMismatch(t *testing.T) {
	fx := fig1Fixture("fig1", topology.Fig1Case1())
	bad := stream.NewWindow(fx.top.NumPaths()+1, 1)
	for _, name := range estimator.Names() {
		est, err := estimator.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := est.Estimate(context.Background(), fx.top, bad); err == nil {
			t.Fatalf("%s accepted a mismatched store", name)
		}
	}
}

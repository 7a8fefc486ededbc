package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// buildRandomRun produces a small Brite overlay and a perfect-E2E
// monitoring record under correlated congestion.
func buildRandomRun(t *testing.T, seed int64) (*topology.Topology, *stream.Window) {
	t.Helper()
	cfg := brite.DefaultConfig()
	cfg.NumAS = 15
	cfg.RoutersPerAS = 4
	top, _, err := brite.DenseTopology(cfg, 70, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1000))
	mc := netsim.DefaultConfig(netsim.NoIndependence)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), 400)
	for i := 0; i < 400; i++ {
		rec.Add(model.Interval(i, rng).CongestedPaths)
	}
	return top, rec
}

// The selected system must be consistent: every equation's row over the
// subset universe, and the final null space must annihilate all of them
// (the invariant Algorithm 2 maintains).
func TestAlgorithm1SystemInvariants(t *testing.T) {
	top, rec := buildRandomRun(t, 1)
	b := newBuilder(top, rec, Config{MaxSubsetSize: 2, AlwaysGoodTol: 0})
	b.enumerate(context.Background())
	b.seed(context.Background())
	seedRows := len(b.rows)
	b.augment(context.Background())
	if len(b.rows) < seedRows {
		t.Fatal("augmentation removed rows")
	}
	// Null space invariant: every selected row is annihilated by N.
	for _, cols := range b.rows {
		r := b.denseRow(cols)
		if !linalg.InRowSpace(b.nullspace, r) {
			t.Fatal("selected row not annihilated by the maintained null space")
		}
	}
	// Rank accounting: rank(selected matrix) + nullity == |Ê|.
	m := linalg.NewMatrix(len(b.rows), len(b.subsets))
	for ri, cols := range b.rows {
		for _, c := range cols {
			m.Set(ri, c, 1)
		}
	}
	rank := linalg.RankRREF(m)
	if rank+b.nullspace.Cols != len(b.subsets) {
		t.Fatalf("rank %d + nullity %d != universe %d", rank, b.nullspace.Cols, len(b.subsets))
	}
	// Selection economy: the number of selected path sets should not
	// wildly exceed the achieved rank (each augmentation row increases
	// rank by one; only seeds can be redundant).
	if len(b.rows) > seedRows+rank {
		t.Fatalf("selected %d rows for rank %d with %d seeds", len(b.rows), rank, seedRows)
	}
}

// Augmentation must never decrease identifiability: running the full
// algorithm identifies at least as many subsets as solving the seed
// system alone.
func TestAugmentationIncreasesIdentifiability(t *testing.T) {
	top, rec := buildRandomRun(t, 2)

	full, err := Compute(context.Background(), top, rec, Config{MaxSubsetSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	countIdent := func(r *Result) int {
		n := 0
		for _, s := range r.Subsets {
			if s.Identifiable {
				n++
			}
		}
		return n
	}
	// Disable augmentation by capping the enumeration at one candidate
	// per subset (the seeds themselves are always tried first).
	b := newBuilder(top, rec, Config{MaxSubsetSize: 2})
	b.enumerate(context.Background())
	b.seed(context.Background())
	plan, err := b.plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.solveEpoch(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if countIdent(full) < countIdent(res) {
		t.Fatalf("full run identified %d subsets, seeds alone %d", countIdent(full), countIdent(res))
	}
}

// The identified probabilities must be close to the ground truth on a
// noise-free (perfect E2E) run — the integration-level accuracy check.
func TestEndToEndAccuracyPerfectObservation(t *testing.T) {
	cfg := brite.DefaultConfig()
	cfg.NumAS = 15
	cfg.RoutersPerAS = 4
	top, _, err := brite.DenseTopology(cfg, 70, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	mc := netsim.DefaultConfig(netsim.NoIndependence)
	mc.PerfectE2E = true
	const T = 6000
	model, err := netsim.NewModel(top, mc, T, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), T)
	for i := 0; i < T; i++ {
		rec.Add(model.Interval(i, rng).CongestedPaths)
	}
	res, err := Compute(context.Background(), top, rec, Config{MaxSubsetSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	identified := 0
	for e := 0; e < top.NumLinks(); e++ {
		g, ok := res.LinkGoodProb(e)
		if !ok {
			continue
		}
		identified++
		truth := model.TrueLinkProb(e)
		if math.Abs((1-g)-truth) > 0.08 {
			t.Errorf("link %d: estimated %.3f, true %.3f", e, 1-g, truth)
		}
	}
	if identified < top.NumLinks()/3 {
		t.Fatalf("only %d/%d links identified on a dense overlay", identified, top.NumLinks())
	}
}

// Failure injection: a recorder in which every path is congested in
// every interval (e.g. a broken prober) must not crash the algorithm.
func TestAllCongestedObservations(t *testing.T) {
	top := topology.Fig1Case1()
	rec := stream.NewWindow(top.NumPaths(), 50)
	all := bitset.FromIndices(3, 0, 1, 2)
	for i := 0; i < 50; i++ {
		rec.Add(all)
	}
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClampedRows == 0 {
		t.Fatal("expected clamped rows when nothing is ever good")
	}
	// Estimates, where identified, must be valid probabilities.
	for _, s := range res.Subsets {
		if s.Identifiable && (s.GoodProb < 0 || s.GoodProb > 1) {
			t.Fatalf("subset %s: invalid probability %v", s.Links, s.GoodProb)
		}
	}
}

// Failure injection: an all-good monitoring period must mark every link
// always-good and produce congestion probability 0 everywhere.
func TestAllGoodObservations(t *testing.T) {
	top := topology.Fig1Case1()
	rec := stream.NewWindow(top.NumPaths(), 50)
	for i := 0; i < 50; i++ {
		rec.Add(bitset.New(3))
	}
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PotentiallyCongested.IsEmpty() {
		t.Fatalf("potentially congested = %s, want empty", res.PotentiallyCongested)
	}
	for e := 0; e < 4; e++ {
		if p, exact := res.LinkCongestProbOrFallback(e); p != 0 || !exact {
			t.Fatalf("link %d: p=%v exact=%v", e, p, exact)
		}
	}
}

// The MaxEnumPathSets cap must bound the augmentation work without
// breaking the system invariants.
func TestMaxEnumPathSetsCap(t *testing.T) {
	top, rec := buildRandomRun(t, 4)
	res, err := Compute(context.Background(), top, rec, Config{MaxSubsetSize: 2, MaxEnumPathSets: 4})
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := Compute(context.Background(), top, rec, Config{MaxSubsetSize: 2, MaxEnumPathSets: 512})
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *Result) int {
		n := 0
		for _, s := range r.Subsets {
			if s.Identifiable {
				n++
			}
		}
		return n
	}
	if count(res) > count(resFull) {
		t.Fatalf("tighter cap identified more subsets (%d > %d)?", count(res), count(resFull))
	}
}

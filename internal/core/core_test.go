package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/stream"
	"repro/internal/topology"
)

// simulateFig1Case1 produces T intervals of perfect path observations
// over the Fig. 1 topology (Case 1) with the given distribution:
// e1 congested w.p. p1, e4 w.p. p4, and {e2,e3} perfectly correlated,
// both congested together w.p. p23 (the paper's §3.1 example of
// correlation), all groups independent.
func simulateFig1Case1(t *testing.T, p1, p23, p4 float64, T int, seed int64) (*topology.Topology, *stream.Window) {
	t.Helper()
	top := topology.Fig1Case1()
	rng := rand.New(rand.NewSource(seed))
	rec := stream.NewWindow(top.NumPaths(), T)
	for i := 0; i < T; i++ {
		congLinks := bitset.New(4)
		if rng.Float64() < p1 {
			congLinks.Add(0)
		}
		if rng.Float64() < p23 {
			congLinks.Add(1)
			congLinks.Add(2)
		}
		if rng.Float64() < p4 {
			congLinks.Add(3)
		}
		congPaths := bitset.New(3)
		for p := 0; p < 3; p++ {
			if top.PathLinks(p).Intersects(congLinks) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}
	return top, rec
}

func TestFig1Case1SeedPathSets(t *testing.T) {
	// §5.3's table: the seed path sets must be
	//   {e1} -> {p1,p2}, {e2} -> {p1}, {e3} -> {p2,p3},
	//   {e2,e3} -> {p1,p2,p3}, {e4} -> {p3}.
	top, rec := simulateFig1Case1(t, 0.3, 0.4, 0.2, 400, 1)
	b := newBuilder(top, rec, Config{})
	b.enumerate(context.Background())

	want := map[string]string{
		"{0}":    "{0, 1}",
		"{1}":    "{0}",
		"{2}":    "{1, 2}",
		"{1, 2}": "{0, 1, 2}",
		"{3}":    "{2}",
	}
	if len(b.subsets) != 5 {
		t.Fatalf("universe size = %d, want 5", len(b.subsets))
	}
	for _, s := range b.subsets {
		if got := s.seedSet.String(); got != want[s.links.String()] {
			t.Errorf("seed(%s) = %s, want %s", s.links, got, want[s.links.String()])
		}
	}
}

func TestFig1Case1EquationsMatchFig2b(t *testing.T) {
	// The seed system must be exactly the equations of Fig. 2(b):
	// every row pairs path sets with the right correlation subsets.
	top, rec := simulateFig1Case1(t, 0.3, 0.4, 0.2, 400, 2)
	b := newBuilder(top, rec, Config{})
	b.enumerate(context.Background())
	b.seed(context.Background())

	// Expected (path set -> subset names), from Fig. 2(b).
	type eq struct{ paths, subs string }
	want := map[string]string{
		"{0, 1}":    "[{0}]",            // P(Yp1=0,Yp2=0) = g(e1)·g(e2,e3) — wait, see below
		"{0}":       "[{0} {1}]",        // P(Yp1=0) = g(e1)·g(e2)
		"{1, 2}":    "[{0} {2} {3}]",    // P(Yp2=0,Yp3=0) = g(e1)·g(e3)·g(e4)
		"{2}":       "[{2} {3}]",        // P(Yp3=0) = g(e3)·g(e4)
		"{0, 1, 2}": "[{0} {1, 2} {3}]", // all paths: g(e1)·g(e2,e3)·g(e4)
	}
	// Correction for {p1,p2}: Links = {e1,e2,e3} -> g(e1)·g({e2,e3}).
	want["{0, 1}"] = "[{0} {1, 2}]"
	if len(b.rows) != 5 {
		t.Fatalf("seed equations = %d, want 5", len(b.rows))
	}
	for ri, cols := range b.rows {
		var subs []string
		for _, c := range cols {
			subs = append(subs, b.subsets[c].links.String())
		}
		got := "[" + joinStrings(subs, " ") + "]"
		key := b.pathSets[ri].String()
		if want[key] == "" {
			t.Errorf("unexpected seed path set %s", key)
			continue
		}
		if got != want[key] {
			t.Errorf("equation for %s = %s, want %s", key, got, want[key])
		}
	}
	_ = eq{}
}

func joinStrings(s []string, sep string) string {
	out := ""
	for i, x := range s {
		if i > 0 {
			out += sep
		}
		out += x
	}
	return out
}

func TestFig1Case1RecoversProbabilities(t *testing.T) {
	// With abundant noise-free observations the algorithm must recover
	// all five subset probabilities: the Fig. 2(b) system has full rank.
	p1, p23, p4 := 0.3, 0.4, 0.2
	top, rec := simulateFig1Case1(t, p1, p23, p4, 60000, 3)
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nullity != 0 {
		t.Fatalf("nullity = %d, want 0 (Identifiability++ holds in Case 1)", res.Nullity)
	}
	checks := []struct {
		links []int
		want  float64 // g(E)
	}{
		{[]int{0}, 1 - p1},
		{[]int{1}, 1 - p23},
		{[]int{2}, 1 - p23},
		{[]int{3}, 1 - p4},
		{[]int{1, 2}, 1 - p23}, // perfectly correlated pair
	}
	for _, c := range checks {
		g, ok := res.SubsetGoodProb(bitset.FromIndices(4, c.links...))
		if !ok {
			t.Fatalf("subset %v not identifiable", c.links)
		}
		if math.Abs(g-c.want) > 0.03 {
			t.Errorf("g(%v) = %.3f, want ≈%.3f", c.links, g, c.want)
		}
	}
	// The joint probability that e2 and e3 are both congested must be
	// ≈ p23 (not p23², which Independence would report).
	pc, ok := res.CongestedProb(bitset.FromIndices(4, 1, 2))
	if !ok {
		t.Fatal("CongestedProb(e2,e3) unavailable")
	}
	if math.Abs(pc-p23) > 0.03 {
		t.Errorf("P(e2,e3 congested) = %.3f, want ≈%.3f", pc, p23)
	}
}

func TestFig1Case2Unidentifiable(t *testing.T) {
	// Case 2 violates Identifiability++: {e1,e4} and {e2,e3} are
	// traversed by the same paths, so their probabilities must be
	// reported unidentifiable, not guessed (§2, §5).
	top := topology.Fig1Case2()
	rng := rand.New(rand.NewSource(4))
	rec := stream.NewWindow(top.NumPaths(), 5000)
	for i := 0; i < 5000; i++ {
		congLinks := bitset.New(4)
		if rng.Float64() < 0.3 {
			congLinks.Add(0)
			congLinks.Add(3)
		}
		if rng.Float64() < 0.4 {
			congLinks.Add(1)
			congLinks.Add(2)
		}
		congPaths := bitset.New(3)
		for p := 0; p < 3; p++ {
			if top.PathLinks(p).Intersects(congLinks) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nullity == 0 {
		t.Fatal("Case 2 must leave a non-trivial null space")
	}
	for _, links := range [][]int{{0, 3}, {1, 2}} {
		if _, ok := res.SubsetGoodProb(bitset.FromIndices(4, links...)); ok {
			t.Errorf("subset %v should be unidentifiable in Case 2", links)
		}
	}
}

func TestAlwaysGoodPathsPruneSubsets(t *testing.T) {
	// §5.2's example: if p3 is always good, e3 and e4 are always good,
	// and the potentially congested subsets are {e1} and {e2} only.
	top := topology.Fig1Case1()
	rng := rand.New(rand.NewSource(5))
	rec := stream.NewWindow(top.NumPaths(), 2000)
	for i := 0; i < 2000; i++ {
		congPaths := bitset.New(3)
		if rng.Float64() < 0.3 { // e1 congested -> p1, p2 congested
			congPaths.Add(0)
			congPaths.Add(1)
		}
		if rng.Float64() < 0.2 { // e2 congested -> p1 congested
			congPaths.Add(0)
		}
		rec.Add(congPaths)
	}
	b := newBuilder(top, rec, Config{})
	b.enumerate(context.Background())
	if got := b.potLinks.String(); got != "{0, 1}" {
		t.Fatalf("potentially congested links = %s, want {0, 1}", got)
	}
	if len(b.subsets) != 2 {
		t.Fatalf("universe = %d subsets, want 2 ({e1} and {e2})", len(b.subsets))
	}

	// And the full run recovers both probabilities.
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g1, ok1 := res.LinkGoodProb(0)
	g2, ok2 := res.LinkGoodProb(1)
	if !ok1 || !ok2 {
		t.Fatal("e1/e2 should be identifiable")
	}
	if math.Abs(g1-0.7) > 0.04 || math.Abs(g2-0.8) > 0.04 {
		t.Errorf("g(e1)=%.3f (want .7), g(e2)=%.3f (want .8)", g1, g2)
	}
	// Always-good links report congestion probability 0 exactly.
	if p, exact := res.LinkCongestProbOrFallback(2); p != 0 || !exact {
		t.Errorf("e3 should have exact probability 0, got %v (exact=%v)", p, exact)
	}
}

func TestMaxSubsetSizeBound(t *testing.T) {
	top, rec := simulateFig1Case1(t, 0.3, 0.4, 0.2, 2000, 6)
	res, err := Compute(context.Background(), top, rec, Config{MaxSubsetSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The pair {e2,e3} is not enumerated... but it can still appear in
	// equations (e.g. the all-paths equation) and therefore be
	// registered. The enumerated singles must all be present.
	for _, li := range []int{0, 1, 2, 3} {
		if _, ok := res.index[bitset.FromIndices(4, li).Key()]; !ok {
			t.Errorf("singleton {e%d} missing from universe", li+1)
		}
	}
}

func TestSubsetGoodProbOfAlwaysGoodIsOne(t *testing.T) {
	top, rec := simulateFig1Case1(t, 0.3, 0.4, 0.2, 1000, 7)
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The empty set is good with probability 1.
	if g, ok := res.SubsetGoodProb(bitset.New(4)); !ok || g != 1 {
		t.Fatalf("g(∅) = %v, ok=%v", g, ok)
	}
}

func TestComputeRejectsMismatchedRecorder(t *testing.T) {
	top := topology.Fig1Case1()
	rec := stream.NewWindow(99, 1)
	if _, err := Compute(context.Background(), top, rec, Config{}); err == nil {
		t.Fatal("mismatched store accepted")
	}
}

func TestCongestedProbConsistency(t *testing.T) {
	// P(e congested) computed via CongestedProb must equal
	// 1 − LinkGoodProb(e).
	top, rec := simulateFig1Case1(t, 0.3, 0.4, 0.2, 20000, 8)
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		g, ok1 := res.LinkGoodProb(e)
		s := bitset.New(4)
		s.Add(e)
		pc, ok2 := res.CongestedProb(s)
		if ok1 != ok2 {
			t.Fatalf("link %d: identifiability disagreement", e)
		}
		if ok1 && math.Abs(pc-(1-g)) > 1e-9 {
			t.Fatalf("link %d: CongestedProb %.4f != 1-g %.4f", e, pc, 1-g)
		}
	}
	// Cross-correlation-set pair {e1, e4}: independent sets, so
	// P(both congested) = (1-g1)(1-g4).
	g1, _ := res.LinkGoodProb(0)
	g4, _ := res.LinkGoodProb(3)
	pc, ok := res.CongestedProb(bitset.FromIndices(4, 0, 3))
	if !ok {
		t.Fatal("cross-set pair should be computable")
	}
	if want := (1 - g1) * (1 - g4); math.Abs(pc-want) > 1e-9 {
		t.Fatalf("cross-set pair: %.4f, want %.4f", pc, want)
	}
}

func TestFallbackForUncoveredLink(t *testing.T) {
	// A link traversed by no path is potentially congested but carries
	// no information; the fallback must return 0 without claiming
	// exactness.
	links := []topology.Link{{ID: 0, AS: 0}, {ID: 1, AS: 1}}
	paths := []topology.Path{{ID: 0, Links: []int{0}}}
	top := topology.New(links, paths, nil)
	rec := stream.NewWindow(1, 2)
	rec.Add(bitset.FromIndices(1, 0)) // p0 congested once
	rec.Add(bitset.New(1))
	res, err := Compute(context.Background(), top, rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, exact := res.LinkCongestProbOrFallback(1)
	if p != 0 || exact {
		t.Fatalf("uncovered link: p=%v exact=%v, want 0,false", p, exact)
	}
	// The covered link e0 is identifiable: g = 0.5.
	if p, exact := res.LinkCongestProbOrFallback(0); !exact || math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("covered link: p=%v exact=%v", p, exact)
	}
}

package topology

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// Coverage table from §5.2/§5.3 of the paper for the Fig. 1 topology.
func TestFig1CoverageFunctions(t *testing.T) {
	top := Fig1Case1()
	cases := []struct {
		links []int
		paths []int
	}{
		{[]int{0}, []int{0, 1}},       // Paths({e1}) = {p1, p2}
		{[]int{1}, []int{0}},          // Paths({e2}) = {p1}
		{[]int{2}, []int{1, 2}},       // Paths({e3}) = {p2, p3}
		{[]int{3}, []int{2}},          // Paths({e4}) = {p3}
		{[]int{0, 1}, []int{0, 1}},    // Paths({e1,e2}) = {p1, p2}
		{[]int{0, 2}, []int{0, 1, 2}}, // Paths({e1,e3}) = {p1, p2, p3}
		{[]int{1, 2}, []int{0, 1, 2}}, // Paths({e2,e3}) = {p1, p2, p3}
	}
	for _, c := range cases {
		got := top.PathsOfSlice(c.links).Indices()
		if !reflect.DeepEqual(got, c.paths) {
			t.Errorf("Paths(%v) = %v, want %v", c.links, got, c.paths)
		}
	}
	// Links({p1}) = {e1, e2}; Links({p1, p2}) = {e1, e2, e3}.
	if got := top.LinksOf(bitset.FromIndices(3, 0)).Indices(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Links({p1}) = %v", got)
	}
	if got := top.LinksOf(bitset.FromIndices(3, 0, 1)).Indices(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Links({p1,p2}) = %v", got)
	}
}

// Complements from §5.2: in Case 1, {e1}‾ = ∅, {e2}‾ = {e3},
// {e3}‾ = {e2}, {e4}‾ = ∅, {e2,e3}‾ = ∅.
func TestFig1Complements(t *testing.T) {
	top := Fig1Case1()
	cases := []struct {
		subset []int
		want   []int
	}{
		{[]int{0}, nil},
		{[]int{1}, []int{2}},
		{[]int{2}, []int{1}},
		{[]int{3}, nil},
		{[]int{1, 2}, nil},
	}
	for _, c := range cases {
		got := top.Complement(bitset.FromIndices(4, c.subset...)).Indices()
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Complement(%v) = %v, want %v", c.subset, got, c.want)
		}
	}
}

func TestComplementAcrossSetsPanics(t *testing.T) {
	top := Fig1Case1()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-set subset")
		}
	}()
	top.Complement(bitset.FromIndices(4, 0, 1)) // e1 and e2 are in different sets
}

func TestEnumerateSubsets(t *testing.T) {
	top := Fig1Case1()
	// Case 1 subsets: {e1}, {e2}, {e3}, {e2,e3}, {e4} (§5.2).
	subs := top.EnumerateSubsets(0)
	if len(subs) != 5 {
		t.Fatalf("got %d subsets, want 5", len(subs))
	}
	var keys []string
	for _, s := range subs {
		keys = append(keys, s.Links.String())
	}
	want := []string{"{0}", "{1}", "{2}", "{1, 2}", "{3}"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("subsets = %v, want %v", keys, want)
	}

	// Case 2 adds {e1,e4}: 6 subsets total (§5.2).
	if n := len(Fig1Case2().EnumerateSubsets(0)); n != 6 {
		t.Fatalf("case 2: got %d subsets, want 6", n)
	}

	// Size bound.
	if n := len(top.EnumerateSubsets(1)); n != 4 {
		t.Fatalf("maxSize=1: got %d subsets, want 4", n)
	}
}

func TestIdentifiabilityCondition1(t *testing.T) {
	// Fig 1: all four links have distinct path coverage.
	if v := Fig1Case1().CheckIdentifiability(0); len(v) != 0 {
		t.Fatalf("unexpected condition-1 violations: %v", v)
	}
	// Two parallel links on the same single path violate it.
	links := []Link{{ID: 0, AS: 0}, {ID: 1, AS: 0}}
	paths := []Path{{ID: 0, Links: []int{0, 1}}}
	top := New(links, paths, nil)
	if v := top.CheckIdentifiability(0); len(v) != 1 {
		t.Fatalf("violations = %v, want exactly 1", v)
	}
}

func TestIdentifiabilityPlusPlus(t *testing.T) {
	// Case 1 satisfies Identifiability++ (§2).
	if v := Fig1Case1().CheckIdentifiabilityPlusPlus(0, 0); len(v) != 0 {
		t.Fatalf("case 1 should satisfy Identifiability++, got %v", v)
	}
	// Case 2 fails: {e1,e4} and {e2,e3} are both traversed by
	// {p1,p2,p3} (§2).
	v := Fig1Case2().CheckIdentifiabilityPlusPlus(0, 0)
	if len(v) != 1 {
		t.Fatalf("case 2 violations = %d, want 1", len(v))
	}
	a, b := v[0].A.Links.String(), v[0].B.Links.String()
	if !(a == "{0, 3}" && b == "{1, 2}" || a == "{1, 2}" && b == "{0, 3}") {
		t.Fatalf("violation pair = %s, %s", a, b)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	badCases := []struct {
		name  string
		links []Link
		paths []Path
		sets  [][]int
	}{
		{"unknown link", []Link{{ID: 0}}, []Path{{ID: 0, Links: []int{5}}}, nil},
		{"loop", []Link{{ID: 0}}, []Path{{ID: 0, Links: []int{0, 0}}}, nil},
		{"empty path", []Link{{ID: 0}}, []Path{{ID: 0}}, nil},
		{"bad link ID", []Link{{ID: 7}}, nil, nil},
		{"bad path ID", []Link{{ID: 0}}, []Path{{ID: 3, Links: []int{0}}}, nil},
		{"empty corr set", []Link{{ID: 0}}, []Path{{ID: 0, Links: []int{0}}}, [][]int{{0}, {}}},
		{"dup corr membership", []Link{{ID: 0}}, []Path{{ID: 0, Links: []int{0}}}, [][]int{{0}, {0}}},
		{"uncovered link", []Link{{ID: 0}, {ID: 1}}, []Path{{ID: 0, Links: []int{0, 1}}}, [][]int{{0}}},
		{"no paths", nil, nil, nil},
		{"links but no paths", []Link{{ID: 0}}, nil, nil},
	}
	for _, c := range badCases {
		top := &Topology{Links: c.links, Paths: c.paths, CorrSets: c.sets}
		if err := top.Build(); err == nil {
			t.Errorf("%s: Build accepted invalid topology", c.name)
		}
	}
}

func TestDefaultCorrelationSetsAreSingletons(t *testing.T) {
	links := []Link{{ID: 0}, {ID: 1}}
	paths := []Path{{ID: 0, Links: []int{0, 1}}}
	top := New(links, paths, nil)
	if len(top.CorrSets) != 2 {
		t.Fatalf("CorrSets = %v", top.CorrSets)
	}
	if top.CorrSetOf(1) != 1 {
		t.Fatalf("CorrSetOf(1) = %d", top.CorrSetOf(1))
	}
}

func TestCorrelationSetsByAS(t *testing.T) {
	links := []Link{
		{ID: 0, AS: 10}, {ID: 1, AS: 20}, {ID: 2, AS: 10}, {ID: 3, AS: -1},
	}
	sets := CorrelationSetsByAS(links)
	want := [][]int{{0, 2}, {1}, {3}}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("sets = %v, want %v", sets, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	top := Fig1Case1()
	var buf bytes.Buffer
	if err := top.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLinks() != 4 || got.NumPaths() != 3 {
		t.Fatalf("round trip lost structure: %d links, %d paths", got.NumLinks(), got.NumPaths())
	}
	if !reflect.DeepEqual(got.CorrSets, top.CorrSets) {
		t.Fatalf("corr sets = %v", got.CorrSets)
	}
	if got.PathsOfSlice([]int{0}).String() != "{0, 1}" {
		t.Fatal("indices not rebuilt")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"links":[{"ID":0}],"paths":[{"ID":0,"Links":[9]}]}`)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestMeanPathsPerLink(t *testing.T) {
	top := Fig1Case1()
	// Coverages: e1:2, e2:1, e3:2, e4:1 -> mean 1.5.
	if got := top.MeanPathsPerLink(); got != 1.5 {
		t.Fatalf("MeanPathsPerLink = %v, want 1.5", got)
	}
}

// randomTopology builds a valid random topology for property tests.
func randomTopology(rng *rand.Rand) *Topology {
	n := 2 + rng.Intn(15)
	m := 1 + rng.Intn(10)
	links := make([]Link, n)
	for i := range links {
		links[i] = Link{ID: i, AS: rng.Intn(4)}
	}
	paths := make([]Path, m)
	for p := range paths {
		// Random subset of links, at least one, no repeats.
		perm := rng.Perm(n)
		k := 1 + rng.Intn(min(n, 5))
		paths[p] = Path{ID: p, Links: append([]int(nil), perm[:k]...)}
	}
	return New(links, paths, CorrelationSetsByAS(links))
}

// Galois connection of the coverage functions: P ⊆ Paths(E) whenever
// every path in P traverses a link of E, and E ⊆ Links(Paths(E))
// whenever every link of E is covered by some path.
func TestQuickCoverageGaloisProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := randomTopology(rng)
		// Random link subset E.
		e := bitset.New(top.NumLinks())
		for i := 0; i < top.NumLinks(); i++ {
			if rng.Intn(2) == 1 {
				e.Add(i)
			}
		}
		cover := top.PathsOf(e)
		// 1. Every path in Paths(E) must traverse some link of E.
		ok := true
		cover.ForEach(func(pi int) bool {
			if !top.PathLinks(pi).Intersects(e) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		// 2. Covered links of E are within Links(Paths(E)).
		linksBack := top.LinksOf(cover)
		coveredE := bitset.New(top.NumLinks())
		e.ForEach(func(li int) bool {
			if !top.LinkPaths(li).IsEmpty() {
				coveredE.Add(li)
			}
			return true
		})
		return coveredE.SubsetOf(linksBack)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity: E1 ⊆ E2 ⇒ Paths(E1) ⊆ Paths(E2).
func TestQuickCoverageMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := randomTopology(rng)
		e2 := bitset.New(top.NumLinks())
		for i := 0; i < top.NumLinks(); i++ {
			if rng.Intn(2) == 1 {
				e2.Add(i)
			}
		}
		e1 := bitset.New(top.NumLinks())
		e2.ForEach(func(li int) bool {
			if rng.Intn(2) == 1 {
				e1.Add(li)
			}
			return true
		})
		return top.PathsOf(e1).SubsetOf(top.PathsOf(e2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

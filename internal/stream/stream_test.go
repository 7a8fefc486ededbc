package stream

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// inUniverse returns s as a window stores it: indices outside the
// numPaths-path universe dropped.
func inUniverse(numPaths int, s *bitset.Set) *bitset.Set {
	row := bitset.New(numPaths)
	s.ForEach(func(p int) bool {
		if p < numPaths {
			row.Add(p)
		}
		return true
	})
	return row
}

// congestedFractionNaive, goodCountNaive, allCongestedCountNaive and
// alwaysGoodPathsNaive are the row-scan references of the columnar
// queries. Each scans a test's own list of rows (congested-path sets
// inside the universe, oldest first), so it shares nothing with the
// masks and counters it checks.
func congestedFractionNaive(rows []*bitset.Set, p int) float64 {
	if len(rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range rows {
		if row.Contains(p) {
			n++
		}
	}
	return float64(n) / float64(len(rows))
}

func goodCountNaive(rows []*bitset.Set, paths *bitset.Set) int {
	n := 0
	for _, row := range rows {
		if !paths.Intersects(row) {
			n++
		}
	}
	return n
}

func allCongestedCountNaive(rows []*bitset.Set, paths *bitset.Set) int {
	n := 0
	for _, row := range rows {
		if paths.SubsetOf(row) {
			n++
		}
	}
	return n
}

func alwaysGoodPathsNaive(numPaths int, rows []*bitset.Set, tol float64) *bitset.Set {
	out := bitset.New(numPaths)
	for p := 0; p < numPaths; p++ {
		if congestedFractionNaive(rows, p) <= tol {
			out.Add(p)
		}
	}
	return out
}

// checkAgainst asserts that every query of w matches the row scans over
// live, the rows w should hold.
func checkAgainst(t *testing.T, rng *rand.Rand, w *Window, numPaths int, live []*bitset.Set) bool {
	t.Helper()
	if w.T() != len(live) {
		t.Logf("T = %d, want %d", w.T(), len(live))
		return false
	}
	for p := 0; p < numPaths; p++ {
		if got, want := w.CongestedFraction(p), congestedFractionNaive(live, p); got != want {
			t.Logf("CongestedFraction(%d) = %v, want %v", p, got, want)
			return false
		}
	}
	for q := 0; q < 15; q++ {
		// Query sets include out-of-universe indices to exercise the
		// clamping: such a path is always good, never congested.
		paths := bitset.New(numPaths + 3)
		for p := 0; p < numPaths+3; p++ {
			if rng.Intn(5) == 0 {
				paths.Add(p)
			}
		}
		if got, want := w.GoodCount(paths), goodCountNaive(live, paths); got != want {
			t.Logf("GoodCount(%s) = %d, want %d (T=%d cap=%d)", paths, got, want, w.T(), w.Cap())
			return false
		}
		if got, want := w.AllCongestedCount(paths), allCongestedCountNaive(live, paths); got != want {
			t.Logf("AllCongestedCount(%s) = %d, want %d (T=%d cap=%d)", paths, got, want, w.T(), w.Cap())
			return false
		}
	}
	for _, tol := range []float64{0, 0.05, 0.3, 1} {
		if got, want := w.AlwaysGoodPaths(tol), alwaysGoodPathsNaive(numPaths, live, tol); !got.Equal(want) {
			t.Logf("AlwaysGoodPaths(%v) = %s, want %s", tol, got, want)
			return false
		}
	}
	return true
}

// A window after N adds (and however many evictions those imply) must
// answer every query exactly like the row scans over its live suffix,
// across randomized path counts and interval counts that straddle word
// boundaries and ring wrap-around. Every stream runs through two
// windows: one smaller than the stream, which evicts, and one at least
// as large, which holds every interval — the size offline runs give
// their window.
func TestQuickWindowMatchesFreshRecorder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numPaths := 1 + rng.Intn(70)
		steps := 2 + rng.Intn(300)
		windows := []*Window{
			NewWindow(numPaths, 1+rng.Intn(steps-1)), // evicts
			NewWindow(numPaths, steps+rng.Intn(70)),  // holds the whole stream
		}
		var history []*bitset.Set
		for i := 0; i < steps; i++ {
			s := bitset.New(numPaths + 3)
			for p := 0; p < numPaths+3; p++ {
				if rng.Intn(4) == 0 {
					s.Add(p) // indices ≥ numPaths exercise the universe clamp
				}
			}
			history = append(history, inUniverse(numPaths, s))
			// Spot-check a few intermediate states, always the final one.
			check := i == steps-1 || rng.Intn(40) == 0
			for _, w := range windows {
				w.Add(s)
				live := history[max(len(history)-w.Cap(), 0):]
				if check && !checkAgainst(t, rng, w, numPaths, live) {
					t.Logf("seed %d: mismatch after %d adds (cap %d, paths %d)", seed, i+1, w.Cap(), numPaths)
					return false
				}
			}
		}
		return windows[1].T() == steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// record builds a window for 3 paths holding exactly the given
// intervals.
func record(intervals ...[]int) *Window {
	w := NewWindow(3, len(intervals))
	for _, iv := range intervals {
		w.Add(bitset.FromIndices(3, iv...))
	}
	return w
}

func TestCountsAndFrequencies(t *testing.T) {
	w := record([]int{0}, []int{0, 1}, nil, []int{2})
	if w.T() != 4 || w.NumPaths() != 3 {
		t.Fatal("T/NumPaths wrong")
	}
	if got := w.CongestedFraction(0); got != 0.5 {
		t.Fatalf("CongestedFraction(0) = %v", got)
	}
	// Path set {0}: good in intervals 3, 4 -> 2/4.
	if got := w.GoodFreq(bitset.FromIndices(3, 0)); got != 0.5 {
		t.Fatalf("GoodFreq({0}) = %v", got)
	}
	// Path set {0,1}: good in intervals 3, 4 -> 2/4.
	if got := w.GoodFreq(bitset.FromIndices(3, 0, 1)); got != 0.5 {
		t.Fatalf("GoodFreq({0,1}) = %v", got)
	}
	// Path set {0,2}: good only in interval 3 -> 1/4.
	if got := w.GoodFreq(bitset.FromIndices(3, 0, 2)); got != 0.25 {
		t.Fatalf("GoodFreq({0,2}) = %v", got)
	}
	// All congested: {0,1} simultaneously congested only in interval 2.
	if got := w.AllCongestedFreq(bitset.FromIndices(3, 0, 1)); got != 0.25 {
		t.Fatalf("AllCongestedFreq = %v", got)
	}
	if got := w.AllCongestedCount(bitset.New(3)); got != 4 {
		t.Fatalf("AllCongestedCount(empty) = %v", got)
	}
}

func TestLogGoodFreqClamping(t *testing.T) {
	w := record([]int{0}, []int{0})
	lp, clamped := w.LogGoodFreq(bitset.FromIndices(3, 0))
	if !clamped {
		t.Fatal("expected clamping for a never-good path")
	}
	if want := math.Log(0.5 / 2); lp != want {
		t.Fatalf("clamped log = %v, want %v", lp, want)
	}
	lp, clamped = w.LogGoodFreq(bitset.FromIndices(3, 1))
	if clamped || lp != 0 {
		t.Fatalf("always-good path: log = %v clamped=%v", lp, clamped)
	}
}

func TestAlwaysGoodPaths(t *testing.T) {
	w := record([]int{0}, []int{0}, []int{1}, nil)
	if got := w.AlwaysGoodPaths(0).String(); got != "{2}" {
		t.Fatalf("strict always-good = %s", got)
	}
	// Path 1 congested 25% of the time: tolerance 0.3 admits it.
	if got := w.AlwaysGoodPaths(0.3).String(); got != "{1, 2}" {
		t.Fatalf("tolerant always-good = %s", got)
	}
}

// Monotonicity: adding paths to a set can only reduce its good
// frequency, and GoodFreq(P) ≥ 1 − Σ congested fractions (union bound).
func TestQuickGoodFreqMonotoneAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPaths := 2 + rng.Intn(6)
		T := 1 + rng.Intn(40)
		w := NewWindow(nPaths, T)
		for i := 0; i < T; i++ {
			s := bitset.New(nPaths)
			for p := 0; p < nPaths; p++ {
				if rng.Intn(3) == 0 {
					s.Add(p)
				}
			}
			w.Add(s)
		}
		small := bitset.New(nPaths)
		big := bitset.New(nPaths)
		for p := 0; p < nPaths; p++ {
			if rng.Intn(2) == 0 {
				big.Add(p)
				if rng.Intn(2) == 0 {
					small.Add(p)
				}
			}
		}
		if w.GoodFreq(small) < w.GoodFreq(big) {
			return false
		}
		sum := 0.0
		big.ForEach(func(p int) bool {
			sum += w.CongestedFraction(p)
			return true
		})
		return w.GoodFreq(big) >= 1-sum-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3, 2)
	w.Add(bitset.FromIndices(3, 0))
	w.Add(bitset.FromIndices(3, 0, 1))
	if w.T() != 2 || w.Seq() != 2 {
		t.Fatalf("T=%d Seq=%d", w.T(), w.Seq())
	}
	// Path 0 congested in both live intervals.
	if got := w.CongestedFraction(0); got != 1 {
		t.Fatalf("CongestedFraction(0) = %v", got)
	}
	// Third add evicts the first interval.
	w.Add(bitset.New(3))
	if w.T() != 2 || w.Seq() != 3 {
		t.Fatalf("after evict: T=%d Seq=%d", w.T(), w.Seq())
	}
	if got := w.CongestedFraction(0); got != 0.5 {
		t.Fatalf("after evict: CongestedFraction(0) = %v", got)
	}
	// Window now holds {0,1} and {}: both paths good only in the last.
	if got := w.GoodCount(bitset.FromIndices(3, 0, 1)); got != 1 {
		t.Fatalf("GoodCount = %d", got)
	}
	if got := w.AllCongestedCount(bitset.FromIndices(3, 0, 1)); got != 1 {
		t.Fatalf("AllCongestedCount = %d", got)
	}
}

func TestWindowAddCopiesInput(t *testing.T) {
	w := NewWindow(3, 4)
	s := bitset.FromIndices(3, 0)
	w.Add(s)
	s.Add(1) // mutating the caller's set must not affect the window
	if w.GoodCount(bitset.FromIndices(3, 1)) != 1 {
		t.Fatal("Add did not copy its input")
	}
}

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(2, 5)
	if w.GoodFreq(bitset.FromIndices(2, 0)) != 1 {
		t.Fatal("empty window GoodFreq should be 1")
	}
	if w.CongestedFraction(0) != 0 {
		t.Fatal("empty window CongestedFraction should be 0")
	}
	if w.AllCongestedFreq(bitset.FromIndices(2, 0)) != 0 {
		t.Fatal("empty window AllCongestedFreq should be 0")
	}
	if lp, clamped := w.LogGoodFreq(bitset.FromIndices(2, 0)); lp != 0 || clamped {
		t.Fatal("empty window LogGoodFreq should be 0, unclamped")
	}
	if !w.AlwaysGoodPaths(0).Equal(bitset.FromIndices(2, 0, 1)) {
		t.Fatal("all paths always good on empty window")
	}
}

func TestWindowCloneIndependent(t *testing.T) {
	w := NewWindow(4, 3)
	for i := 0; i < 5; i++ {
		w.Add(bitset.FromIndices(4, i%4))
	}
	c := w.Clone()
	before := c.GoodCount(bitset.FromIndices(4, 0, 1))
	w.Add(bitset.FromIndices(4, 0, 1, 2, 3))
	w.Add(bitset.FromIndices(4, 0, 1, 2, 3))
	if got := c.GoodCount(bitset.FromIndices(4, 0, 1)); got != before {
		t.Fatalf("clone changed under mutation of the original: %d != %d", got, before)
	}
	if c.Seq() == w.Seq() {
		t.Fatal("original did not advance")
	}
}

// Steady-state adds (with eviction) and queries must not allocate: the
// contract that keeps ingest throughput flat once the ring has wrapped.
func TestWindowSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const numPaths, capacity = 64, 100 // capacity deliberately not a word multiple
	rng := rand.New(rand.NewSource(11))
	pool := make([]*bitset.Set, 16)
	for i := range pool {
		s := bitset.New(numPaths)
		for p := 0; p < numPaths; p++ {
			if rng.Intn(5) == 0 {
				s.Add(p)
			}
		}
		pool[i] = s
	}
	w := NewWindow(numPaths, capacity)
	for i := 0; i < 3*capacity; i++ { // wrap the ring: all slots and masks warm
		w.Add(pool[i%len(pool)])
	}
	paths := bitset.FromIndices(numPaths, 1, 17, 40, 63)
	w.GoodCount(paths) // warm the shared scratch pool
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		w.Add(pool[i%len(pool)])
		i++
		w.GoodCount(paths)
		w.AllCongestedCount(paths)
	}); avg != 0 {
		t.Fatalf("steady-state add+query allocates %v times per run, want 0", avg)
	}
}

// A frozen window must serve many concurrent readers: this is the
// snapshot query path of the streaming server (run under -race in CI).
func TestWindowConcurrentReaders(t *testing.T) {
	const numPaths, capacity = 80, 90
	rng := rand.New(rand.NewSource(5))
	w := NewWindow(numPaths, capacity)
	for i := 0; i < 2*capacity; i++ {
		s := bitset.New(numPaths)
		for p := 0; p < numPaths; p++ {
			if rng.Intn(4) == 0 {
				s.Add(p)
			}
		}
		w.Add(s)
	}
	queries := make([]*bitset.Set, 8)
	want := make([]int, len(queries))
	wantAll := make([]int, len(queries))
	for i := range queries {
		q := bitset.New(numPaths)
		for p := 0; p < numPaths; p++ {
			if rng.Intn(6) == 0 {
				q.Add(p)
			}
		}
		queries[i] = q
		want[i] = w.GoodCount(q)
		wantAll[i] = w.AllCongestedCount(q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(queries)
				if got := w.GoodCount(queries[i]); got != want[i] {
					errs <- "GoodCount raced"
					return
				}
				if got := w.AllCongestedCount(queries[i]); got != wantAll[i] {
					errs <- "AllCongestedCount raced"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

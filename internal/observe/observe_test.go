package observe_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/observe"
	"repro/internal/stream"
)

// The Store contract, checked through the store offline runs record
// into: a stream.Window sized to hold every interval of the run, so it
// never evicts.

// recorder returns an empty run-sized store for numPaths paths and
// room for intervals observations.
func recorder(numPaths, intervals int) *stream.Window {
	return stream.NewWindow(numPaths, max(intervals, 1))
}

var (
	_ observe.Store          = (*stream.Window)(nil)
	_ observe.IntervalSource = (*stream.Window)(nil)
)

func TestEmptyRecorder(t *testing.T) {
	var r observe.Store = recorder(2, 1)
	if r.GoodFreq(bitset.FromIndices(2, 0)) != 1 {
		t.Fatal("empty recorder GoodFreq should be 1")
	}
	if r.CongestedFraction(0) != 0 {
		t.Fatal("empty recorder CongestedFraction should be 0")
	}
	if lp, _ := r.LogGoodFreq(bitset.FromIndices(2, 0)); lp != 0 {
		t.Fatal("empty recorder LogGoodFreq should be 0")
	}
	if !r.AlwaysGoodPaths(0).Equal(bitset.FromIndices(2, 0, 1)) {
		t.Fatal("all paths always good on empty recorder")
	}
}

func TestAddClonesInput(t *testing.T) {
	r := recorder(3, 1)
	s := bitset.FromIndices(3, 0)
	r.Add(s)
	s.Add(1) // mutating the caller's set must not affect the record
	if r.GoodFreq(bitset.FromIndices(3, 1)) != 1 {
		t.Fatal("Add did not clone its input")
	}
}

// goodCountNaive, allCongestedCountNaive and alwaysGoodPathsNaive scan
// the test's own rows (congested sets inside the universe), sharing
// nothing with the columnar masks they check.
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
		n := 0
		for _, row := range rows {
			if row.Contains(p) {
				n++
			}
		}
		if len(rows) == 0 || float64(n)/float64(len(rows)) <= tol {
			out.Add(p)
		}
	}
	return out
}

// Property test for the columnar store: on random recorders, the
// mask-based GoodCount / AllCongestedCount / AlwaysGoodPaths must
// exactly match the naive row scans, including for query sets with
// out-of-universe indices and for interval counts that straddle the
// 64-bit word boundary.
func TestQuickColumnarMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPaths := 1 + rng.Intn(100)
		T := rng.Intn(200)
		r := recorder(nPaths, T)
		var rows []*bitset.Set
		for i := 0; i < T; i++ {
			s := bitset.New(nPaths + 4)
			row := bitset.New(nPaths)
			for p := 0; p < nPaths+4; p++ {
				if rng.Intn(4) == 0 {
					s.Add(p) // indices ≥ nPaths exercise the clamping
					if p < nPaths {
						row.Add(p)
					}
				}
			}
			r.Add(s)
			rows = append(rows, row)
		}
		if r.T() != T {
			t.Logf("seed %d: T = %d, want %d", seed, r.T(), T)
			return false
		}
		for q := 0; q < 20; q++ {
			paths := bitset.New(nPaths + 4)
			for p := 0; p < nPaths+4; p++ {
				if rng.Intn(6) == 0 {
					paths.Add(p)
				}
			}
			if got, want := r.GoodCount(paths), goodCountNaive(rows, paths); got != want {
				t.Logf("seed %d: GoodCount %d != naive %d for %s", seed, got, want, paths)
				return false
			}
			if got, want := r.AllCongestedCount(paths), allCongestedCountNaive(rows, paths); got != want {
				t.Logf("seed %d: AllCongestedCount %d != naive %d for %s", seed, got, want, paths)
				return false
			}
		}
		for _, tol := range []float64{0, 0.05, 0.3, 1} {
			if !r.AlwaysGoodPaths(tol).Equal(alwaysGoodPathsNaive(nPaths, rows, tol)) {
				t.Logf("seed %d: AlwaysGoodPaths(%v) mismatch", seed, tol)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomRecorder fills a run-sized store with intervals random
// congested sets over numPaths paths, each path congested with
// probability 1/every.
func randomRecorder(rng *rand.Rand, numPaths, intervals, every int) *stream.Window {
	r := recorder(numPaths, intervals)
	for i := 0; i < intervals; i++ {
		s := bitset.New(numPaths)
		for p := 0; p < numPaths; p++ {
			if rng.Intn(every) == 0 {
				s.Add(p)
			}
		}
		r.Add(s)
	}
	return r
}

// The columnar queries must stay allocation-free once the shared
// scratch pool is warm (the hot-path contract the solver relies on).
func TestColumnarQueriesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := randomRecorder(rand.New(rand.NewSource(7)), 64, 130, 5)
	paths := bitset.FromIndices(64, 3, 17, 40, 63)
	r.GoodCount(paths) // warm the scratch buffer
	if avg := testing.AllocsPerRun(50, func() {
		r.GoodCount(paths)
		r.AllCongestedCount(paths)
	}); avg != 0 {
		t.Fatalf("columnar queries allocate %v times per run, want 0", avg)
	}
}

// A store must serve many concurrent readers: the streaming server's
// snapshot queries rely on this (run under -race in CI).
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var r observe.Store = randomRecorder(rng, 80, 150, 4)
	queries := make([]*bitset.Set, 6)
	wantGood := make([]int, len(queries))
	wantAll := make([]int, len(queries))
	for i := range queries {
		q := bitset.New(80)
		for p := 0; p < 80; p++ {
			if rng.Intn(7) == 0 {
				q.Add(p)
			}
		}
		queries[i] = q
		wantGood[i] = r.GoodCount(q)
		wantAll[i] = r.AllCongestedCount(q)
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(queries)
				if r.GoodCount(queries[i]) != wantGood[i] || r.AllCongestedCount(queries[i]) != wantAll[i] {
					failed.Store(true)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("concurrent readers observed inconsistent counts")
	}
}

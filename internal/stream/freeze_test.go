package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
)

// refWindow is the deep-copy oracle of the copy-on-write tests: the
// live intervals as a plain slice, cloned by copying every one, queried
// by scanning. It shares nothing with anything, so whatever a freeze
// leaks between a window and its clones shows up as a difference.
type refWindow struct {
	numPaths, capacity int
	seq                uint64
	live               []*bitset.Set // oldest first
}

func (r *refWindow) add(congested *bitset.Set) {
	row := inUniverse(r.numPaths, congested)
	if len(r.live) == r.capacity {
		r.live = r.live[1:]
	}
	r.live = append(r.live, row)
	r.seq++
}

func (r *refWindow) clone() *refWindow {
	c := *r
	c.live = make([]*bitset.Set, len(r.live))
	for i, row := range r.live {
		c.live[i] = row.Clone()
	}
	return &c
}

// checkAgainstRef compares everything the solver and the HTTP layer
// read off a store — T, Seq, each live row, per-path fractions, joint
// counts over random path sets (reaching past the universe) and the
// always-good set — and describes the first difference.
func checkAgainstRef(rng *rand.Rand, got *Window, ref *refWindow) error {
	if got.T() != len(ref.live) || got.Seq() != ref.seq {
		return fmt.Errorf("T/Seq = %d/%d, want %d/%d", got.T(), got.Seq(), len(ref.live), ref.seq)
	}
	for t, row := range ref.live {
		if c := got.CongestedAt(t); !c.Equal(row) {
			return fmt.Errorf("CongestedAt(%d) = %s, want %s", t, c, row)
		}
	}
	for p := 0; p < ref.numPaths; p++ {
		if g, w := got.CongestedFraction(p), congestedFractionNaive(ref.live, p); g != w {
			return fmt.Errorf("CongestedFraction(%d) = %v, want %v", p, g, w)
		}
	}
	for q := 0; q < 6; q++ {
		paths := bitset.New(ref.numPaths + 3)
		for p := 0; p < ref.numPaths+3; p++ {
			if rng.Intn(1+ref.numPaths/3) == 0 {
				paths.Add(p)
			}
		}
		if g, w := got.GoodCount(paths), goodCountNaive(ref.live, paths); g != w {
			return fmt.Errorf("GoodCount(%s) = %d, want %d", paths, g, w)
		}
		if g, w := got.AllCongestedCount(paths), allCongestedCountNaive(ref.live, paths); g != w {
			return fmt.Errorf("AllCongestedCount(%s) = %d, want %d", paths, g, w)
		}
	}
	for _, tol := range []float64{0, 0.1} {
		if g, want := got.AlwaysGoodPaths(tol), alwaysGoodPathsNaive(ref.numPaths, ref.live, tol); !g.Equal(want) {
			return fmt.Errorf("AlwaysGoodPaths(%v) = %s, want %s", tol, g, want)
		}
	}
	return nil
}

// The copy-on-write tests run on a 70-interval ring — two ring words,
// neither a word multiple nor a power of two, so slots, words and laps
// all disagree — over 37 paths.
const freezePaths, freezeCap = 37, 70

func randomInterval(rng *rand.Rand, numPaths int) *bitset.Set {
	s := bitset.New(numPaths + 2)
	for p := 0; p < numPaths+2; p++ { // includes out-of-universe indices
		if rng.Intn(6) == 0 {
			s.Add(p)
		}
	}
	return s
}

// Random interleavings of Add, Clone, Add-on-a-clone and ResetSeq over
// several laps of a small ring: after every step, every retained store
// — the original, clones, clones of clones, written or not — must still
// answer exactly like its own deep-copied reference. A freeze that let
// a write through to shared storage fails here on the other side.
func testFreezeMatchesDeepCopy(t *testing.T, seed int64) {
	const numPaths, capacity, steps, maxRetained = freezePaths, freezeCap, 12 * freezeCap, 7
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		got *Window
		ref *refWindow
	}
	fresh := func() pair {
		return pair{NewWindow(numPaths, capacity), &refWindow{numPaths: numPaths, capacity: capacity}}
	}
	pairs := []pair{fresh()}
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(pairs))
		switch op := rng.Intn(10); {
		case op < 6: // the first pair is the long-lived window: it must lap
			if op < 4 {
				i = 0
			}
			obs := randomInterval(rng, numPaths)
			pairs[i].got.Add(obs)
			pairs[i].ref.add(obs)
		case op < 9:
			pairs = append(pairs, pair{pairs[i].got.Clone(), pairs[i].ref.clone()})
		default:
			// ResetSeq is only legal on an empty store: rebase a fresh one
			// (after freezing it, so the rebase must not leak back either).
			p := fresh()
			pairs = append(pairs, pair{p.got.Clone(), p.ref.clone()})
			seq := uint64(rng.Intn(5 * capacity))
			p.got.ResetSeq(seq)
			p.ref.seq = seq
			pairs = append(pairs, p)
		}
		for len(pairs) > maxRetained {
			drop := 1 + rng.Intn(len(pairs)-1)
			pairs = append(pairs[:drop], pairs[drop+1:]...)
		}
		for k, p := range pairs {
			if err := checkAgainstRef(rng, p.got, p.ref); err != nil {
				t.Fatalf("seed %d step %d store %d/%d: %v", seed, step, k, len(pairs), err)
			}
		}
	}
	if laps := pairs[0].ref.seq / capacity; laps < 3 {
		t.Fatalf("long-lived window made only %d laps of the ring", laps)
	}
}

func TestWindowFreezeMatchesDeepCopy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		testFreezeMatchesDeepCopy(t, seed)
	}
}

// Readers hammer a growing chain of frozen clones while the live store
// keeps ingesting and freezing (run under -race in CI): a frozen clone
// shares its rows and masks with the live store, so any in-place write
// the freeze failed to divert is a data race here and a wrong answer
// against the clone's reference.
func TestWindowFrozenChainUnderIngest(t *testing.T) {
	const numPaths, capacity, freezes, readers = freezePaths, freezeCap, 120, 4
	live := NewWindow(numPaths, capacity)
	type frozen struct {
		got *Window
		ref *refWindow
	}
	feeds := make([]chan frozen, readers)
	var wg sync.WaitGroup
	for g := range feeds {
		feeds[g] = make(chan frozen)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var chain []frozen
			for f := range feeds[g] {
				chain = append(chain, f)
				if len(chain) > 8 {
					chain = chain[1:]
				}
				for _, c := range chain {
					if err := checkAgainstRef(rng, c.got, c.ref); err != nil {
						t.Errorf("reader %d: frozen clone at seq %d changed: %v", g, c.ref.seq, err)
						return
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(7))
	ref := &refWindow{numPaths: numPaths, capacity: capacity}
	for f := 0; f < freezes; f++ {
		for k := rng.Intn(4); k >= 0; k-- {
			obs := randomInterval(rng, numPaths)
			live.Add(obs)
			ref.add(obs)
		}
		// One freeze per reader: freezes of one store are serialized (the
		// documented rule), reads of the results are not.
		for g := range feeds {
			select {
			case feeds[g] <- frozen{live.Clone(), ref.clone()}:
			default: // reader still busy with its chain: keep ingesting
			}
		}
	}
	for g := range feeds {
		close(feeds[g])
	}
	wg.Wait()
	if err := checkAgainstRef(rng, live, ref); err != nil {
		t.Fatalf("live store diverged: %v", err)
	}
}

// Freeze clones once per sequence: until the next Add or ResetSeq every
// Freeze returns the same read-only window, which answers like a
// deep copy taken at that sequence whatever the live window does next.
// A Clone of the live window or of the frozen one does not disturb it,
// and the frozen one refuses Add.
func TestWindowFreezeOncePerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	live := NewWindow(freezePaths, freezeCap)
	ref := &refWindow{numPaths: freezePaths, capacity: freezeCap}
	add := func(n int) {
		for ; n > 0; n-- {
			obs := randomInterval(rng, freezePaths)
			live.Add(obs)
			ref.add(obs)
		}
	}
	add(freezeCap + 9)
	f := live.Freeze()
	fref := ref.clone()
	if live.Freeze() != f || f.Freeze() != f {
		t.Fatal("a second freeze at one sequence cloned again")
	}
	live.Clone()
	if live.Freeze() != f {
		t.Fatal("a Clone of the live window dropped its frozen clone")
	}
	c := f.Clone()
	cref := fref.clone()
	for i := 0; i < freezeCap/2; i++ {
		obs := randomInterval(rng, freezePaths)
		c.Add(obs)
		cref.add(obs)
	}
	add(1)
	g, gref := live.Freeze(), ref.clone()
	if g == f {
		t.Fatal("Freeze after Add returned the previous sequence's window")
	}
	add(freezeCap / 3)
	for _, s := range []struct {
		name string
		got  *Window
		ref  *refWindow
	}{{"first freeze", f, fref}, {"second freeze", g, gref}, {"clone of a freeze", c, cref}, {"live", live, ref}} {
		if err := checkAgainstRef(rng, s.got, s.ref); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}

	empty := NewWindow(freezePaths, freezeCap)
	e := empty.Freeze()
	empty.ResetSeq(5)
	if r := empty.Freeze(); r == e || r.Seq() != 5 || e.Seq() != 0 {
		t.Fatalf("after ResetSeq: Freeze at seq %d (same window: %v), earlier freeze at seq %d", r.Seq(), r == e, e.Seq())
	}

	for name, mutate := range map[string]func(){
		"Add":      func() { f.Add(bitset.New(freezePaths)) },
		"AddBatch": func() { f.AddBatch([]*bitset.Set{bitset.New(freezePaths)}) },
		"ResetSeq": func() { e.ResetSeq(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen window did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if err := checkAgainstRef(rng, f, fref); err != nil {
		t.Fatalf("first freeze after the refused writes: %v", err)
	}
}

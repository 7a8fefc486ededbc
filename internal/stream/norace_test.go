//go:build !race

package stream

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitset"
)

const raceEnabled = false

// The allocation contracts of the copy-on-write freeze, at the paper's
// scale (1500 paths × a 1000-interval window). They live behind !race
// because the race runtime changes allocation counts.

func paperScaleWindow() (*Window, []*bitset.Set) {
	const numPaths, capacity = 1500, 1000
	rng := rand.New(rand.NewSource(13))
	pool := make([]*bitset.Set, 64)
	for i := range pool {
		pool[i] = randomInterval(rng, numPaths)
	}
	w := NewWindow(numPaths, capacity)
	for i := 0; i < 2*capacity; i++ { // past the first lap: every slot and mask exists
		w.Add(pool[i%len(pool)])
	}
	return w, pool
}

// A freeze is a fixed handful of allocations whatever the window holds.
func TestWindowFreezeAllocations(t *testing.T) {
	w, _ := paperScaleWindow()
	var frozen *Window // the result escapes, as a published snapshot does
	if avg := testing.AllocsPerRun(50, func() { frozen = w.Clone() }); avg > 8 {
		t.Fatalf("Clone allocates %v times at 1500 paths × 1000 intervals, want ≤ 8", avg)
	}
	runtime.KeepAlive(frozen)
}

// A second Freeze at one sequence hands back the first one's clone.
func TestWindowRefreezeAllocationFree(t *testing.T) {
	w, _ := paperScaleWindow()
	w.Freeze()
	if avg := testing.AllocsPerRun(50, func() { w.Freeze() }); avg != 0 {
		t.Fatalf("Freeze at an unchanged sequence allocates %v times, want 0", avg)
	}
}

// Without a freeze in between, ingest writes in place: tracking
// ownership costs steady-state Add nothing.
func TestWindowAddWithoutFreezeAllocationFree(t *testing.T) {
	w, pool := paperScaleWindow()
	w.Clone()
	i := 0
	for ; i < w.Cap(); i++ { // one lap after a freeze re-owns every row and mask
		w.Add(pool[i%len(pool)])
	}
	if avg := testing.AllocsPerRun(200, func() {
		w.Add(pool[i%len(pool)])
		i++
	}); avg != 0 {
		t.Fatalf("Add with no freeze in between allocates %v times per run, want 0", avg)
	}
}

// The first Add after a freeze pays for exactly what it writes: one row
// (a bitset is two allocations) plus one mask per path whose bit it
// sets or, evicting, clears — never the whole window. Counted as an
// AllocsPerRun average over freeze+Add rounds (a process-wide malloc
// delta around a single Add picks up the runtime's own strays).
func TestWindowAddAfterFreezeAllocations(t *testing.T) {
	const rounds = 20
	w, pool := paperScaleWindow()
	// The window is full, so round i evicts what is now the i-th oldest
	// row; round 0 is AllocsPerRun's unmeasured warm-up call.
	touched := 0
	for i := 1; i <= rounds; i++ {
		touched += pool[i].UnionCount(w.CongestedAt(i))
	}
	const perFreeze, perRow = 6, 2
	want := perFreeze + perRow + float64(touched)/rounds
	i := 0
	var frozen *Window
	if avg := testing.AllocsPerRun(rounds, func() {
		frozen = w.Clone()
		w.Add(pool[i])
		i++
	}); avg > want+1 {
		t.Fatalf("freeze + Add touching %.1f paths on average allocates %v times, want ≤ %.1f", float64(touched)/rounds, avg, want)
	}
	runtime.KeepAlive(frozen)
}

package stream

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
)

// The always-good definition is an inclusive threshold: a path whose
// congested fraction lands exactly on the tolerance is always good. A
// window that holds the whole stream and one that has evicted a prefix
// of it must draw the boundary identically over the same live
// intervals — they feed the same §5.2 frontier, offline and served.
func TestAlwaysGoodToleranceBoundary(t *testing.T) {
	const numPaths = 2 // path 0 is probed; path 1 keeps the stream non-trivial
	cases := []struct {
		tol       float64
		intervals int
		congested int // intervals in which path 0 is congested
		want      bool
	}{
		{0.25, 4, 1, true},   // fraction == tol exactly (representable)
		{0.25, 4, 2, false},  // just above
		{0.25, 4, 0, true},   // below
		{0.1, 10, 1, true},   // fraction == tol under rounding (1/10)
		{0.1, 10, 2, false},  // above
		{0, 10, 0, true},     // strict definition
		{0, 10, 1, false},    // strict definition violated once
		{0.5, 8, 4, true},    // == tol at the midpoint
		{0.5, 8, 5, false},   // above the midpoint
		{0.125, 8, 1, true},  // == tol, exact eighth
		{0.125, 8, 2, false}, // above
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("tol=%v/%dof%d", tc.tol, tc.congested, tc.intervals)
		feed := func(add func(*bitset.Set)) {
			for i := 0; i < tc.intervals; i++ {
				s := bitset.New(numPaths)
				if i < tc.congested {
					s.Add(0)
				}
				if i%2 == 0 {
					s.Add(1)
				}
				add(s)
			}
		}
		check := func(t *testing.T, label string, st *Window) {
			t.Helper()
			got := st.AlwaysGoodPaths(tc.tol).Contains(0)
			if got != tc.want {
				t.Fatalf("%s: fraction %v vs tol %v: always-good = %v, want %v",
					label, st.CongestedFraction(0), tc.tol, got, tc.want)
			}
		}
		t.Run(name, func(t *testing.T) {
			// A window exactly the stream's size: no eviction.
			w := NewWindow(numPaths, tc.intervals)
			feed(w.Add)
			check(t, "Window", w)

			// A window the stream's size, fed the stream twice: the first
			// pass is evicted, and the boundary must hold on the surviving
			// second pass, the same intervals the window above holds.
			evicting := NewWindow(numPaths, tc.intervals)
			feed(evicting.Add)
			feed(evicting.Add)
			check(t, "Window(evicting)", evicting)

			// And the two must agree set-for-set, not just on path 0.
			if !evicting.AlwaysGoodPaths(tc.tol).Equal(w.AlwaysGoodPaths(tc.tol)) {
				t.Fatal("windows disagree on the always-good set")
			}
		})
	}
}

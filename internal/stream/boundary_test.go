package stream

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/observe"
)

// goodSet is the store surface the boundary cases probe.
type goodSet interface {
	AlwaysGoodPaths(tol float64) *bitset.Set
	CongestedFraction(p int) float64
}

// The always-good definition is an inclusive threshold: a path whose
// congested fraction lands exactly on the tolerance is always good.
// Recorder and Window must draw the boundary identically
// — they feed the same §5.2 frontier, and a one-store disagreement
// would split the estimators' shared universe.
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
		check := func(t *testing.T, label string, st goodSet) {
			t.Helper()
			got := st.AlwaysGoodPaths(tc.tol).Contains(0)
			if got != tc.want {
				t.Fatalf("%s: fraction %v vs tol %v: always-good = %v, want %v",
					label, st.CongestedFraction(0), tc.tol, got, tc.want)
			}
		}
		t.Run(name, func(t *testing.T) {
			rec := observe.NewRecorder(numPaths)
			feed(rec.Add)
			check(t, "Recorder", rec)

			// A window exactly the stream's size: no eviction.
			w := NewWindow(numPaths, tc.intervals)
			feed(w.Add)
			check(t, "Window", w)

			// A window half the stream's size, fed the stream twice: the
			// boundary must hold on the surviving intervals only. The
			// second pass replays the same pattern, so the live window's
			// congested count for path 0 is min(congested, capacity)…
			// except the fraction now runs over `capacity` intervals, so
			// only streams whose pattern fits the window keep the exact
			// boundary; feeding the identical pattern twice does.
			evicting := NewWindow(numPaths, tc.intervals)
			feed(evicting.Add)
			feed(evicting.Add)
			check(t, "Window(evicting)", evicting)

			// And the two must agree set-for-set, not just on path 0.
			if !rec.AlwaysGoodPaths(tc.tol).Equal(w.AlwaysGoodPaths(tc.tol)) {
				t.Fatal("stores disagree on the always-good set")
			}
		})
	}
}

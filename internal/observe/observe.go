// Package observe names what every tomography algorithm reads off the
// per-interval path observations of Assumption 2 (E2E Monitoring): the
// frequency with which a *set* of paths was simultaneously good (the
// left-hand sides of Eq. 1), and the set of always-good paths that
// determines which correlation subsets are potentially congested
// (§5.2). Store is that read side; IntervalSource is the optional
// per-interval row view the Boolean-inference estimators need.
//
// The one implementation is stream.Window: a columnar ring that
// tomod's daemons serve from and that offline runs (the experiments,
// the public facade, the tests) size to cover the whole run, so it
// never evicts. The interfaces stay here so that estimators, solvers
// and test fakes (such as a store with exact good frequencies) depend
// on the read side only.
package observe

import "repro/internal/bitset"

// Store is the read side of an observation store: the empirical joint
// statistics every tomography algorithm consumes. stream.Window
// implements it over its live intervals. Implementations must support
// concurrent readers (writes still need external serialization against
// reads).
type Store interface {
	// NumPaths returns the path universe size.
	NumPaths() int
	// T returns the number of observed intervals.
	T() int
	// CongestedFraction returns the fraction of intervals in which
	// path p was observed congested.
	CongestedFraction(p int) float64
	// GoodCount returns the number of intervals in which every path in
	// the set was good.
	GoodCount(paths *bitset.Set) int
	// GoodFreq is GoodCount normalized by T (1 on an empty store).
	GoodFreq(paths *bitset.Set) float64
	// LogGoodFreq returns log P̂(∩ Y_p = 0), clamping a zero count to
	// half an observation; clamped reports whether it did.
	LogGoodFreq(paths *bitset.Set) (logp float64, clamped bool)
	// AllCongestedCount returns the number of intervals in which every
	// path in the set was simultaneously congested.
	AllCongestedCount(paths *bitset.Set) int
	// AllCongestedFreq is AllCongestedCount normalized by T.
	AllCongestedFreq(paths *bitset.Set) float64
	// AlwaysGoodPaths returns the paths whose congested fraction is
	// ≤ tol.
	AlwaysGoodPaths(tol float64) *bitset.Set
}

// IntervalSource is the optional row view of a Store: per-interval
// access to the congested-path sets, indexed oldest-first in [0, T()).
// The Boolean-inference estimators need it (they diagnose one interval
// at a time); stream.Window implements it. The returned sets must not
// be modified and are valid only until the next write to the store.
type IntervalSource interface {
	CongestedAt(t int) *bitset.Set
}

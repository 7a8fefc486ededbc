package core

import (
	"sync"

	"repro/internal/bitset"
)

// buildArena pools every scratch allocation of a cold plan build:
// everything a row decomposition, a seed-set computation or a candidate
// evaluation needs that is not retained by the plan. It is taken from a
// process-wide pool per build and returned when the build completes, so
// a steady-state rebuild allocates (almost) only the retained plan.
// Nothing in a released arena may alias plan state.
type buildArena struct {
	numLinks, numPaths, numCorrSets int

	links    *bitset.Set   // Links(P) accumulator (link universe)
	perSet   []*bitset.Set // corrSet -> per-set subset scratch, stamped
	mark     []int         // stamp marks for perSet first-encounter
	stamp    int
	setOrder []int
	cols     []int
	rn       []float64 // InRowSpaceSparse accumulator
	keyBuf   []byte
	pathBuf  *bitset.Set // candidate path set (path universe)
	chosen   []int
	eligible []int
	comboIdx []int
	comp     *bitset.Set // seed-set complement Ē (link universe)
	paths    *bitset.Set // Paths(Ē) accumulator (path universe)
	covered  *bitset.Set
	one      *bitset.Set
	pathsBuf []int
	cursors  []augCursor // per-subset augmentation cursors, by subset index
	order    []int
	weights  []int
	rowBuf   []float64
	usedKeys map[string]bool
}

var arenaPool = sync.Pool{New: func() any { return &buildArena{usedKeys: map[string]bool{}} }}

// prepare sizes the arena for a topology, reusing buffers whenever the
// dimensions match the previous build.
func (ar *buildArena) prepare(numLinks, numPaths, numCorrSets int) {
	if ar.numLinks == numLinks && ar.numPaths == numPaths && ar.numCorrSets == numCorrSets {
		return
	}
	ar.numLinks, ar.numPaths, ar.numCorrSets = numLinks, numPaths, numCorrSets
	ar.links = bitset.New(numLinks)
	ar.comp = bitset.New(numLinks)
	ar.covered = bitset.New(numLinks)
	ar.pathBuf = bitset.New(numPaths)
	ar.paths = bitset.New(numPaths)
	ar.one = bitset.New(numPaths)
	ar.perSet = make([]*bitset.Set, numCorrSets)
	ar.mark = make([]int, numCorrSets)
	ar.stamp = 0
}

// release returns the arena to the pool.
func (ar *buildArena) release() {
	clear(ar.usedKeys)
	arenaPool.Put(ar)
}

// augCursor is one subset's position in its augmentation candidate
// stream, carried across rounds: the comboIter state (size and
// combination indices; the path list is re-derived from the seed set
// on each visit), the MaxEnumPathSets budget left, and whether the
// stream is spent (exhausted or out of budget). A candidate behind the
// cursor never needs a second look — every reject reason is monotone
// (a used path set stays used, decomposition against the frozen
// universe is constant, a row inside the row space stays inside as
// the null space only shrinks) — so resuming evaluates each candidate
// at most once and commits exactly what a restart would.
type augCursor struct {
	size   int
	idx    []int
	budget int
	spent  bool
}

// comboIter streams the non-empty subsets of a path list in increasing
// size, lexicographic combinations within a size, without allocating
// per candidate. The zero size starts the stream; augCursor resumes it.
// (arena_test.go holds the closure form it replaced as its executable
// specification.)
type comboIter struct {
	paths []int
	size  int
	idx   []int
}

// next advances to the next subset, reporting false when exhausted.
func (it *comboIter) next() bool {
	n := len(it.paths)
	if it.size == 0 {
		if n == 0 {
			return false
		}
		it.size = 1
		it.idx = append(it.idx[:0], 0)
		return true
	}
	if nextCombo(it.idx, n) {
		return true
	}
	it.size++
	if it.size > n {
		return false
	}
	it.idx = it.idx[:0]
	for k := 0; k < it.size; k++ {
		it.idx = append(it.idx, k)
	}
	return true
}

// appendChosen appends the current subset's path IDs to dst.
func (it *comboIter) appendChosen(dst []int) []int {
	for _, k := range it.idx {
		dst = append(dst, it.paths[k])
	}
	return dst
}

// nextCombo advances idx to the next k-combination of {0..n-1} in
// lexicographic order, reporting false after the last one.
func nextCombo(idx []int, n int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/observe"
	"repro/internal/topology"
)

// shapes numbers structure tokens; 0 is never issued.
var shapes atomic.Uint64

// newShape issues a structure token. One is issued per plan structure
// (a build, or a tier-2 patch that re-indexes the subsets) and per
// decoded block structure (NewShardResult), and every Result of that
// structure carries it: Results with one token list the same subsets'
// link sets in the same order, under the same subset index, over the
// same path sets. A MergeCache compares tokens to tell an unchanged
// structure without looking at a set.
func newShape() uint64 { return shapes.Add(1) }

// NewShardResult reconstructs a per-shard Result from its exported
// fields, e.g. after decoding one from a wire format: it keys each
// subset into a fresh index and issues a new structure token. The
// result is suitable as an input to MergeResults, which reads only the
// exported block fields (Subsets, PathSets, Rank, Nullity, ClampedRows)
// and the subset index, and re-derives the global link partitions
// itself; per-link queries on the shard result alone are not supported
// because it carries no observe store. A block whose structure repeats
// the last one's is rebuilt with NewShardResultLike instead.
func NewShardResult(subsets []SubsetResult, pathSets []*bitset.Set, rank, nullity, clampedRows int) *Result {
	r := &Result{
		Subsets:     subsets,
		PathSets:    pathSets,
		Rank:        rank,
		Nullity:     nullity,
		ClampedRows: clampedRows,
		index:       make(map[string]int, len(subsets)),
		shape:       newShape(),
	}
	for i, s := range subsets {
		r.index[s.Links.Key()] = i
	}
	return r
}

// NewShardResultLike is NewShardResult for a block with prev's
// structure: subsets lists prev's subsets in order — the same link sets
// (the same *bitset.Set values) and correlation sets — carrying this
// block's probabilities and identifiability. The result shares prev's
// path sets, subset index and structure token, so building it keys
// nothing and a MergeCache sees the structure unchanged. It panics when
// subsets are not prev's.
func NewShardResultLike(prev *Result, subsets []SubsetResult, rank, nullity, clampedRows int) *Result {
	if len(subsets) != len(prev.Subsets) {
		panic("core: NewShardResultLike with a different subset count")
	}
	for i, s := range subsets {
		if p := prev.Subsets[i]; s.Links != p.Links || s.CorrSet != p.CorrSet {
			panic("core: NewShardResultLike with a different subset")
		}
	}
	return &Result{
		Subsets:     subsets,
		PathSets:    prev.PathSets,
		Rank:        rank,
		Nullity:     nullity,
		ClampedRows: clampedRows,
		index:       prev.index,
		shape:       prev.shape,
	}
}

// MergeResults assembles per-shard restricted Results (one per
// topology.Partition shard, in shard order) into a single Result over
// the whole topology. The correlation-set partition makes the merge
// mechanical: shards share no correlation set, so the subset universes
// are disjoint and concatenate, and every joint query (SubsetGoodProb,
// CongestedProb, the per-link fallback chain) factors per correlation
// set and therefore resolves entirely within one shard's block. The
// merged subset index is the blocks' indexes offset by each block's
// position — no subset is re-keyed. The global always-good/potentially-
// congested link sets are re-derived from rec with the given tolerance,
// exactly as an unrestricted run would. nil entries (shards without a
// result yet) contribute nothing.
func MergeResults(top *topology.Topology, rec observe.Store, shards []*Result, alwaysGoodTol float64) *Result {
	return new(MergeCache).Merge(top, rec, shards, alwaysGoodTol)
}

// MergeCache is MergeResults with a memory of its last merge's
// structure: the merged subset index and path sets, keyed by the
// blocks' structure tokens. A merge whose blocks all carry the tokens
// of the previous merge's blocks — warm shard plans, or a cluster
// coordinator's blocks decoded over an unchanged structure — reuses
// them and builds only the merged subset values. The zero value is
// ready to use, and a MergeCache is safe for concurrent use (a
// server's shard loops merge concurrently).
type MergeCache struct {
	mu       sync.Mutex
	shapes   []uint64 // per block of the cached merge; 0 for a nil block
	index    map[string]int
	pathSets []*bitset.Set
	shape    uint64 // the merged results' token
}

// Merge is MergeResults, reusing the cached structure when the blocks'
// structure tokens are the cached ones.
func (c *MergeCache) Merge(top *topology.Topology, rec observe.Store, shards []*Result, alwaysGoodTol float64) *Result {
	merged := mergeValues(top, rec, shards, alwaysGoodTol)
	if c.lookup(shards, merged) {
		return merged
	}
	merged.index, merged.PathSets = mergeStructure(shards)
	merged.shape = newShape()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shapes = c.shapes[:0]
	for _, r := range shards {
		var sh uint64
		if r != nil {
			sh = r.shape
		}
		c.shapes = append(c.shapes, sh)
	}
	c.index, c.pathSets, c.shape = merged.index, merged.PathSets, merged.shape
	return merged
}

// lookup fills merged's structure from the cache and reports whether
// the blocks' tokens were the cached ones.
func (c *MergeCache) lookup(shards []*Result, merged *Result) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shape == 0 || len(shards) != len(c.shapes) {
		return false
	}
	for i, r := range shards {
		if r == nil && c.shapes[i] != 0 || r != nil && r.shape != c.shapes[i] {
			return false
		}
	}
	merged.index, merged.PathSets, merged.shape = c.index, c.pathSets, c.shape
	return true
}

// mergeValues starts a merge: everything but the structure — the
// concatenated subsets, the summed counts and the re-derived link
// partitions over rec.
func mergeValues(top *topology.Topology, rec observe.Store, shards []*Result, alwaysGoodTol float64) *Result {
	merged := &Result{top: top, rec: rec}
	merged.AlwaysGoodLinks = top.LinksOf(rec.AlwaysGoodPaths(alwaysGoodTol))
	merged.PotentiallyCongested = top.PotentiallyCongestedLinks(merged.AlwaysGoodLinks)
	n := 0
	for _, r := range shards {
		if r != nil {
			n += len(r.Subsets)
		}
	}
	if n > 0 {
		merged.Subsets = make([]SubsetResult, 0, n)
	}
	for _, r := range shards {
		if r == nil {
			continue
		}
		merged.Subsets = append(merged.Subsets, r.Subsets...)
		merged.Rank += r.Rank
		merged.Nullity += r.Nullity
		merged.ClampedRows += r.ClampedRows
	}
	return merged
}

// mergeStructure concatenates the blocks' path sets and offsets each
// block's subset index by the subsets before it.
func mergeStructure(shards []*Result) (map[string]int, []*bitset.Set) {
	n := 0
	for _, r := range shards {
		if r != nil {
			n += len(r.index)
		}
	}
	index := make(map[string]int, n)
	var pathSets []*bitset.Set
	base := 0
	for _, r := range shards {
		if r == nil {
			continue
		}
		for k, i := range r.index {
			index[k] = base + i
		}
		pathSets = append(pathSets, r.PathSets...)
		base += len(r.Subsets)
	}
	return index, pathSets
}

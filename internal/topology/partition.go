package topology

import "repro/internal/bitset"

// Partition groups the correlation sets of a topology into shards: the
// connected components of the bipartite incidence between correlation
// sets and paths. Two correlation sets land in the same shard exactly
// when some path traverses links of both, so a path's equation (Eq. 1
// factored per correlation set) only ever references subsets of its own
// shard, and the Correlation-complete linear system is block-diagonal
// across shards. That makes the shard the unit of independent solving:
// the streaming service runs one solver per shard, and a congestion
// burst confined to one shard never forces the others to re-derive
// their structure.
//
// Links whose correlation sets are traversed by no path at all form no
// shard: there is nothing to solve for them (every estimator reports
// the zero fallback), and keeping them out lets NumShards() == 1 mean
// "the whole solvable system is one block".
type Partition struct {
	top *Topology

	numShards int
	pathShard []int // path ID -> shard, always valid (paths are never orphaned)
	linkShard []int // link ID -> shard, -1 for links of path-less components
	corrShard []int // correlation set -> shard, -1 for path-less components

	shardCorrSets [][]int       // shard -> its correlation set indices, ascending
	shardPaths    []*bitset.Set // shard -> its path IDs
	shardLinks    []*bitset.Set // shard -> its link IDs (all links of its correlation sets)
}

// NewPartition computes the correlation-set partition of top.
func NewPartition(top *Topology) *Partition {
	nc := len(top.CorrSets)
	// Union-find over correlation sets: each path joins the correlation
	// sets of the links it traverses.
	parent := make([]int, nc)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra { // smallest root wins: shard numbering stays stable
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for p := 0; p < top.NumPaths(); p++ {
		first := -1
		top.PathLinks(p).ForEach(func(li int) bool {
			c := top.CorrSetOf(li)
			if first == -1 {
				first = c
			} else {
				union(first, c)
			}
			return true
		})
	}
	// Components with at least one path become shards, numbered in
	// ascending order of their smallest correlation set so the numbering
	// is deterministic and independent of union order.
	hasPath := make([]bool, nc)
	for p := 0; p < top.NumPaths(); p++ {
		top.PathLinks(p).ForEach(func(li int) bool {
			hasPath[find(top.CorrSetOf(li))] = true
			return false // one link suffices: the whole path is one component
		})
	}
	part := &Partition{
		top:       top,
		pathShard: make([]int, top.NumPaths()),
		linkShard: make([]int, top.NumLinks()),
		corrShard: make([]int, nc),
	}
	rootShard := make([]int, nc)
	for i := range rootShard {
		rootShard[i] = -1
	}
	for c := 0; c < nc; c++ {
		r := find(c)
		if !hasPath[r] {
			part.corrShard[c] = -1
			continue
		}
		if rootShard[r] == -1 {
			rootShard[r] = part.numShards
			part.numShards++
			part.shardCorrSets = append(part.shardCorrSets, nil)
			part.shardPaths = append(part.shardPaths, bitset.New(top.NumPaths()))
			part.shardLinks = append(part.shardLinks, bitset.New(top.NumLinks()))
		}
		s := rootShard[r]
		part.corrShard[c] = s
		part.shardCorrSets[s] = append(part.shardCorrSets[s], c)
		for _, li := range top.CorrSets[c] {
			part.shardLinks[s].Add(li)
		}
	}
	for li := range part.linkShard {
		part.linkShard[li] = part.corrShard[top.CorrSetOf(li)]
	}
	for p := 0; p < top.NumPaths(); p++ {
		s := 0
		top.PathLinks(p).ForEach(func(li int) bool {
			s = part.linkShard[li] // all of p's links share one shard
			return false
		})
		part.pathShard[p] = s
		part.shardPaths[s].Add(p)
	}
	return part
}

// Topology returns the topology the partition was computed over.
func (pt *Partition) Topology() *Topology { return pt.top }

// NumShards returns the number of shards: the path-covered correlation
// components. A fully connected topology has exactly one.
func (pt *Partition) NumShards() int { return pt.numShards }

// PathShard returns the shard of path p.
func (pt *Partition) PathShard(p int) int { return pt.pathShard[p] }

// PathShards returns the full path→shard mapping; the slice must not be
// modified.
func (pt *Partition) PathShards() []int { return pt.pathShard }

// LinkShard returns the shard of link e, or -1 when e's correlation
// component is traversed by no path (nothing to solve).
func (pt *Partition) LinkShard(e int) int { return pt.linkShard[e] }

// ShardCorrSets returns the correlation set indices of shard s in
// ascending order; the slice must not be modified.
func (pt *Partition) ShardCorrSets(s int) []int { return pt.shardCorrSets[s] }

// ShardPaths returns the path set of shard s; it must not be modified.
func (pt *Partition) ShardPaths(s int) *bitset.Set { return pt.shardPaths[s] }

// ShardLinks returns the link set of shard s (every link of its
// correlation sets, covered or not); it must not be modified.
func (pt *Partition) ShardLinks(s int) *bitset.Set { return pt.shardLinks[s] }

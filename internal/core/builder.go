package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/observe"
	"repro/internal/topology"
)

// builder carries the state of one Correlation-complete run. Every
// phase registers, decomposes and commits in place, in one fixed order:
// the index a subset receives and the order path sets are selected in
// feed the augmentation loop's tie-breaking, so they decide the plan
// (TestPlanFingerprintGolden pins both).
type builder struct {
	top *topology.Topology
	rec observe.Store
	cfg Config

	alwaysGoodPaths *bitset.Set
	goodLinks       *bitset.Set // links on an always-good path
	potLinks        *bitset.Set // potentially congested links

	// corrSets is the correlation-set universe of this run: the
	// restriction from cfg.RestrictCorrSets, or every set. When
	// restricted, restrictPaths holds the shard's paths and shardLinks
	// its links (nil otherwise) and alwaysGoodPaths/goodLinks/potLinks
	// are confined to the shard.
	corrSets      []int
	restrictPaths *bitset.Set
	shardLinks    *bitset.Set

	// The unknown universe Ê: potentially congested correlation
	// subsets, each identified by its bitset key.
	subsets []subsetEntry
	index   map[string]int
	frozen  bool // once frozen, rows referencing unseen subsets are invalid

	// Selected path sets P̂ and their rows.
	pathSets []*bitset.Set
	usedKeys map[string]bool
	rows     [][]int // per path set: sorted subset indices appearing in its equation

	nullspace *linalg.Matrix

	// evaluated counts the candidate path sets augmentation examined;
	// the cursors keep it to at most one look per candidate.
	evaluated int

	// arena is the pooled scratch of this build. close() returns it;
	// only buildPlan calls that — builders driven phase-by-phase in
	// tests simply don't recycle.
	arena *buildArena
}

// subsetEntry is one unknown of Ê. seedSet is build-only: plan()
// clears it, so a retained plan carries just the links.
type subsetEntry struct {
	links   *bitset.Set
	corrSet int
	seedSet *bitset.Set // Paths(E) \ Paths(Ē), the isolation path set
}

func newBuilder(top *topology.Topology, rec observe.Store, cfg Config) *builder {
	b := &builder{
		top:   top,
		rec:   rec,
		cfg:   cfg,
		index: map[string]int{},
	}
	b.arena = arenaPool.Get().(*buildArena)
	b.arena.prepare(top.NumLinks(), top.NumPaths(), len(top.CorrSets))
	b.usedKeys = b.arena.usedKeys
	b.alwaysGoodPaths = rec.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	if cfg.RestrictCorrSets == nil {
		b.corrSets = make([]int, len(top.CorrSets))
		for i := range b.corrSets {
			b.corrSets[i] = i
		}
		b.goodLinks = top.LinksOf(b.alwaysGoodPaths)
		b.potLinks = top.PotentiallyCongestedLinks(b.goodLinks)
		return b
	}
	// Restricted run: confine the universe to the shard's links and the
	// paths covering them. Links of the shard are covered only by shard
	// paths (the restriction is closed under path coverage), so the
	// shard's good/potentially-congested links come out exactly as in an
	// unrestricted run.
	b.corrSets = cfg.RestrictCorrSets
	shardLinks := bitset.New(top.NumLinks())
	for _, c := range b.corrSets {
		for _, li := range top.CorrSetLinks(c) {
			shardLinks.Add(li)
		}
	}
	b.shardLinks = shardLinks
	b.restrictPaths = top.PathsOf(shardLinks)
	b.alwaysGoodPaths = b.alwaysGoodPaths.Intersect(b.restrictPaths)
	b.goodLinks = top.LinksOf(b.alwaysGoodPaths)
	b.potLinks = top.PotentiallyCongestedLinks(b.goodLinks).Intersect(shardLinks)
	return b
}

// close returns the scratch arena to the pool. Idempotent; nothing the
// built plan retains lives in it.
func (b *builder) close() {
	if b.arena == nil {
		return
	}
	b.usedKeys = nil
	b.arena.release()
	b.arena = nil
}

// lookupOrRegister resolves a correlation subset to its index in Ê,
// registering it if new (and not frozen). The lookup goes through the
// arena's key buffer so the common post-freeze case allocates nothing.
func (b *builder) lookupOrRegister(links *bitset.Set, corrSet int) (int, bool) {
	ar := b.arena
	ar.keyBuf = links.AppendKey(ar.keyBuf[:0])
	if i, ok := b.index[string(ar.keyBuf)]; ok {
		return i, true
	}
	if b.frozen {
		return -1, false
	}
	i := len(b.subsets)
	b.index[string(ar.keyBuf)] = i
	b.subsets = append(b.subsets, subsetEntry{links: links.Clone(), corrSet: corrSet})
	return i, true
}

// decompose splits the equation of a path set with link coverage
// `links` into the indices of the correlation subsets appearing in it:
// for each correlation set C, the potentially congested part of
// Links(P) ∩ C. The per-set groups are collected — and the indices
// returned — in first-encounter order (ascending link index), not map
// iteration order: the index a fresh subset receives feeds the
// augmentation loop's tie-breaking, so it must be deterministic. ok is
// false when the system is frozen and the equation references an
// unregistered subset. The returned slice aliases the arena's cols
// buffer; callers that commit a plan row sort it.
func (b *builder) decompose(links *bitset.Set) (cols []int, ok bool) {
	ar := b.arena
	ar.stamp++
	ar.setOrder = ar.setOrder[:0]
	ar.cols = ar.cols[:0]
	links.ForEach(func(li int) bool {
		if !b.potLinks.Contains(li) {
			return true // always-good link: factor 1, drops out
		}
		c := b.top.CorrSetOf(li)
		if ar.mark[c] != ar.stamp {
			ar.mark[c] = ar.stamp
			if ar.perSet[c] == nil {
				ar.perSet[c] = bitset.New(b.top.NumLinks())
			} else {
				ar.perSet[c].Clear()
			}
			ar.setOrder = append(ar.setOrder, c)
		}
		ar.perSet[c].Add(li)
		return true
	})
	for _, c := range ar.setOrder {
		i, regOK := b.lookupOrRegister(ar.perSet[c], c)
		if !regOK {
			return nil, false
		}
		ar.cols = append(ar.cols, i)
	}
	return ar.cols, true
}

// rowFor decomposes the equation of path set P (as a bitset).
func (b *builder) rowFor(pathSet *bitset.Set) ([]int, bool) {
	links := b.arena.links
	links.Clear()
	pathSet.ForEach(func(pi int) bool {
		links.UnionWith(b.top.PathLinks(pi))
		return true
	})
	return b.decompose(links)
}

// rowForPaths decomposes the equation of a path set given as explicit
// path IDs, skipping the path-bitset detour of rowFor.
func (b *builder) rowForPaths(chosen []int) ([]int, bool) {
	links := b.arena.links
	links.Clear()
	for _, p := range chosen {
		links.UnionWith(b.top.PathLinks(p))
	}
	return b.decompose(links)
}

// Rows decomposes each path set's equation log P̂(P good) = Σ log g(E)
// into the correlation subsets E appearing in it — per correlation set
// C, the part of Links(P) ∩ C in pot — registering every subset it
// meets. rows[i] lists path set i's column indices in first-encounter
// order, unsorted (empty when P crosses no link of pot); index maps a
// subset's bitset key to its column, numbered in registration order.
// It is the decomposition a Correlation-complete build registers its
// universe with, without the enumeration, the seed sets or the freeze.
func Rows(top *topology.Topology, pot *bitset.Set, pathSets []*bitset.Set) (rows [][]int, index map[string]int) {
	b := &builder{top: top, potLinks: pot, index: map[string]int{}, arena: arenaPool.Get().(*buildArena)}
	b.arena.prepare(top.NumLinks(), top.NumPaths(), len(top.CorrSets))
	defer b.close()
	rows = make([][]int, len(pathSets))
	for i, p := range pathSets {
		cols, _ := b.rowFor(p)
		rows[i] = slices.Clone(cols)
	}
	return rows, b.index
}

// enumerate builds the unknown universe Ê: all potentially congested
// correlation subsets of size ≤ MaxSubsetSize over covered links
// (Algorithm 1's input list), enriched with every subset appearing in a
// seed or single-path equation so those rows stay expressible.
func (b *builder) enumerate(ctx context.Context) error {
	setStage("enumerate")
	ar := b.arena
	covered := ar.covered
	covered.Clear()
	for e := 0; e < b.top.NumLinks(); e++ {
		if !b.top.LinkPaths(e).IsEmpty() {
			covered.Add(e)
		}
	}
	// Correlation sets partition the links, so no subset can appear
	// under two sets and every combination below registers a new entry.
	for _, ci := range b.corrSets {
		if err := ctx.Err(); err != nil {
			return err
		}
		ar.eligible = ar.eligible[:0]
		for _, li := range b.top.CorrSetLinks(ci) {
			if b.potLinks.Contains(li) && covered.Contains(li) {
				ar.eligible = append(ar.eligible, li)
			}
		}
		limit := b.cfg.MaxSubsetSize
		if limit <= 0 || limit > len(ar.eligible) {
			limit = len(ar.eligible)
		}
		for size := 1; size <= limit; size++ {
			ar.comboIdx = ar.comboIdx[:0]
			for j := 0; j < size; j++ {
				ar.comboIdx = append(ar.comboIdx, j)
			}
			for {
				ar.links.Clear()
				for _, x := range ar.comboIdx {
					ar.links.Add(ar.eligible[x])
				}
				b.lookupOrRegister(ar.links, ci)
				if !nextCombo(ar.comboIdx, len(ar.eligible)) {
					break
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Register the subsets of the per-path equations so the
	// augmentation loop can use single-path rows (cheap and low-noise).
	one := ar.one
	for p := 0; p < b.top.NumPaths(); p++ {
		if b.restrictPaths != nil && !b.restrictPaths.Contains(p) {
			continue // another shard's path
		}
		if b.alwaysGoodPaths.Contains(p) {
			continue
		}
		one.Clear()
		one.Add(p)
		b.rowFor(one)
	}
	// Compute each subset's isolation path set Paths(E) \ Paths(Ē),
	// where Ē is the potentially congested complement within E's
	// correlation set. Seed equations may reference further subsets,
	// which in turn need their own seed sets; iterate to a fixpoint
	// (bounded: each round can only add subsets that appear in some
	// equation).
	setStage("seeds")
	for round, done := 0, 0; done < len(b.subsets) && round < 8; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := done
		done = len(b.subsets)
		for i := start; i < done; i++ {
			b.computeSeedSet(i)
			if seedSet := b.subsets[i].seedSet; !seedSet.IsEmpty() {
				b.rowFor(seedSet) // may register new subsets
			}
		}
	}
	// Any subsets registered in the final round still need a seed set.
	for i := range b.subsets {
		if b.subsets[i].seedSet == nil {
			b.computeSeedSet(i)
		}
	}
	b.frozen = true
	return ctx.Err()
}

// computeSeedSet fills subset i's isolation path set
// Paths(E) \ Paths(Ē), where Ē is the potentially congested complement
// within E's correlation set. Scratch-backed: only the retained seedSet
// itself is allocated.
func (b *builder) computeSeedSet(i int) {
	ar := b.arena
	s := &b.subsets[i]
	ar.comp.Clear()
	for _, li := range b.top.CorrSetLinks(s.corrSet) {
		if b.potLinks.Contains(li) && !s.links.Contains(li) {
			ar.comp.Add(li)
		}
	}
	ar.paths.Clear()
	ar.comp.ForEach(func(li int) bool {
		ar.paths.UnionWith(b.top.LinkPaths(li))
		return true
	})
	s.seedSet = b.top.PathsOf(s.links).Difference(ar.paths)
}

// addPathSet selects a path set: it appends copies of p and of its row
// (both may be scratch) and marks p used.
func (b *builder) addPathSet(p *bitset.Set, cols []int) {
	b.pathSets = append(b.pathSets, p.Clone())
	b.usedKeys[p.Key()] = true
	b.rows = append(b.rows, append([]int(nil), cols...))
}

// denseRow expands a column-index row into a dense vector over Ê. The
// returned slice aliases a scratch buffer owned by the builder — it is
// valid only until the next denseRow call and must not be retained
// (the augmentation loop only hands it to NullSpaceUpdateInPlace, which
// doesn't keep it).
func (b *builder) denseRow(cols []int) []float64 {
	ar := b.arena
	if cap(ar.rowBuf) < len(b.subsets) {
		ar.rowBuf = make([]float64, len(b.subsets))
	}
	r := ar.rowBuf[:len(b.subsets)]
	for i := range r {
		r[i] = 0
	}
	for _, c := range cols {
		r[c] = 1
	}
	return r
}

// seed performs Algorithm 1 lines 1–7: one path set per subset, in
// subset order, then the initial null space.
func (b *builder) seed(ctx context.Context) error {
	setStage("seeds")
	ar := b.arena
	for i := range b.subsets {
		seedSet := b.subsets[i].seedSet
		if seedSet.IsEmpty() {
			continue
		}
		ar.keyBuf = seedSet.AppendKey(ar.keyBuf[:0])
		if b.usedKeys[string(ar.keyBuf)] {
			continue
		}
		cols, ok := b.rowFor(seedSet)
		if !ok {
			continue
		}
		sort.Ints(cols)
		b.addPathSet(seedSet, cols)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m := linalg.NewMatrix(len(b.rows), len(b.subsets))
	for ri, cols := range b.rows {
		for _, c := range cols {
			m.Set(ri, c, 1)
		}
	}
	b.nullspace = linalg.NullSpaceBasis(m)
	return nil
}

// augment performs Algorithm 1 lines 8–22: repeatedly find a path set
// whose row leaves the current row space, preferring subsets whose
// null-space row has the largest Hamming weight, and update the null
// space with Algorithm 2 after each addition. Each subset's candidate
// stream resumes where the previous round left it (augCursor).
func (b *builder) augment(ctx context.Context) error {
	setStage("augment")
	ar := b.arena
	maxEnum := b.cfg.MaxEnumPathSets
	if maxEnum <= 0 {
		maxEnum = 128
	}
	ar.cursors = slices.Grow(ar.cursors[:0], len(b.subsets))[:len(b.subsets)]
	for i := range ar.cursors {
		ar.cursors[i] = augCursor{idx: ar.cursors[i].idx[:0], budget: maxEnum}
	}
	for b.nullspace.Cols > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		found := false
		if cap(ar.order) < len(b.subsets) {
			ar.order = make([]int, len(b.subsets))
			ar.weights = make([]int, len(b.subsets))
		}
		order := sortSubsetsByNullWeight(b.nullspace, len(b.subsets), ar.order[:len(b.subsets)], ar.weights[:len(b.subsets)])
		for _, si := range order {
			s, cur := &b.subsets[si], &ar.cursors[si]
			if cur.spent || s.seedSet.IsEmpty() {
				continue
			}
			committed, err := b.augmentSubset(ctx, s, cur)
			if err != nil {
				return err
			}
			if committed {
				found = true
				break
			}
		}
		if !found {
			break // r = 0: no remaining path set increases the rank
		}
	}
	return ctx.Err()
}

// augmentSubset scans one subset's candidate path sets (subsets of its
// isolation paths, in increasing size, capped at MaxEnumPathSets over
// the whole build) from its cursor for the first that is not yet
// selected, whose equation decomposes within the frozen universe and
// whose row leaves the current row space, and commits it: append the
// path set and its row, mark it used, and fold the equation into the
// null space (Algorithm 2). A scan that finds none marks the cursor
// spent.
func (b *builder) augmentSubset(ctx context.Context, s *subsetEntry, cur *augCursor) (bool, error) {
	ar := b.arena
	ar.pathsBuf = s.seedSet.AppendIndices(ar.pathsBuf[:0])
	it := comboIter{paths: ar.pathsBuf, size: cur.size, idx: cur.idx}
	defer func() { cur.size, cur.idx = it.size, it.idx }()

	for cur.budget > 0 && it.next() {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		cur.budget--
		b.evaluated++
		ar.chosen = it.appendChosen(ar.chosen[:0])
		ar.pathBuf.Clear()
		for _, p := range ar.chosen {
			ar.pathBuf.Add(p)
		}
		ar.keyBuf = ar.pathBuf.AppendKey(ar.keyBuf[:0])
		if b.usedKeys[string(ar.keyBuf)] {
			continue
		}
		cols, ok := b.rowForPaths(ar.chosen)
		if !ok {
			continue
		}
		sort.Ints(cols)
		if len(ar.rn) < b.nullspace.Cols {
			ar.rn = make([]float64, b.nullspace.Cols)
		}
		if linalg.InRowSpaceSparse(b.nullspace, cols, ar.rn) {
			continue
		}
		b.addPathSet(ar.pathBuf, cols)
		linalg.NullSpaceUpdateInPlace(b.nullspace, b.denseRow(cols))
		return true, nil
	}
	cur.spent = true
	return false, nil
}

package core

import (
	"sort"

	"repro/internal/bitset"
)

// RepairNumeric is the tier-2 repair: it absorbs always-good drift
// that *moves* the good-link frontier — the class tier-1 Repair
// rejects — by patching the retained factorization instead of
// rebuilding. good must already be restricted to the plan's shard.
//
// Holding the selected path sets P̂ and the active-row verdicts fixed,
// a frontier move transforms the reduced system purely by column
// operations: each path set's equation re-decomposes under the new
// potentially-congested link set (links entering the set add unknowns
// to its groups, links leaving it drop out), while the right-hand
// sides — the empirical log good-frequencies of the path sets — do not
// depend on the frontier at all. So the repair:
//
//  1. re-derives the potentially-congested set from the drifted good
//     set (intersected with the shard's links when restricted) and
//     declines if the symmetric difference exceeds
//     Config.NumericalRepairMaxFrac of the link universe — past that
//     the patch costs more than it saves;
//  2. rebuilds the unknown universe Ê as the surviving old subsets
//     (those still inside the new potentially-congested set, keeping
//     their relative order) plus any new subsets the re-decomposed
//     equations reference, appended in encounter order;
//  3. re-derives every selected path set's row under the new frontier
//     (the same deterministic per-correlation-set decomposition the
//     builder uses) and diffs each retained QR column's support over
//     the active rows: unchanged columns stay in place, changed or
//     dissolved ones are deleted (QR.DeleteCol), and new or reshaped
//     ones are appended (QR.AppendCol) as 0/1 indicators;
//  4. re-verifies full column rank incrementally on the patched
//     factorization and falls back to the cold rebuild on any rank
//     loss — the incremental identifiability check.
//
// All staging happens on a clone of the factorization, so a failed
// repair (returning false) leaves the plan untouched and still valid
// for the batch path's pending flush. On success the plan is committed
// to the new frontier and NumericRepairCount increments.
//
// The repaired epoch is numerically — not bitwise — equivalent to the
// rebuild it skipped: the patched factorization solves exactly the
// re-derived system to within factorization tolerance
// (property-tested), but a cold rebuild may additionally select path
// sets and enumerate unknowns the retained plan never saw, so
// estimates agree to solver tolerance only where the two structural
// selections coincide. That relaxation is why the tier sits behind
// Config.NumericalPlanRepair.
func (pl *Plan) RepairNumeric(good *bitset.Set) bool {
	if pl.qr == nil || len(pl.colMap) == 0 || len(pl.rows) == 0 {
		// Trivial retained system: nothing worth patching, and the
		// rebuild is cheap in exactly these cases.
		return false
	}
	newGoodLinks := pl.top.LinksOf(good)
	newPot := pl.top.PotentiallyCongestedLinks(newGoodLinks)
	if pl.shardLinks != nil {
		newPot = newPot.Intersect(pl.shardLinks)
	}
	frac := pl.cfg.NumericalRepairMaxFrac
	if frac <= 0 {
		frac = DefaultNumericalRepairMaxFrac
	}
	delta := pl.potLinks.SymmetricDifferenceCount(newPot)
	universe := pl.potLinks.UnionCount(newPot)
	if universe == 0 || float64(delta) > frac*float64(universe) {
		return false
	}

	// Rebuild the unknown universe: survivors keep their relative
	// order, new subsets from the re-decomposed rows append behind.
	oldToNew := make([]int, len(pl.subsets))
	newSubsets := make([]subsetEntry, 0, len(pl.subsets))
	newIndex := make(map[string]int, len(pl.subsets))
	for i, s := range pl.subsets {
		if !s.links.SubsetOf(newPot) {
			oldToNew[i] = -1
			continue
		}
		oldToNew[i] = len(newSubsets)
		newIndex[s.links.Key()] = len(newSubsets)
		newSubsets = append(newSubsets, s)
	}

	// Re-derive every selected path set's row under the new frontier,
	// with the builder's deterministic first-encounter decomposition.
	newRows := make([][]int, len(pl.rows))
	for ri, ps := range pl.pathSets {
		links := pl.top.LinksOf(ps)
		bySet := map[int]*bitset.Set{}
		var setOrder []int
		links.ForEach(func(li int) bool {
			if !newPot.Contains(li) {
				return true // good link: factor 1, drops out
			}
			c := pl.top.CorrSetOf(li)
			if bySet[c] == nil {
				bySet[c] = bitset.New(pl.top.NumLinks())
				setOrder = append(setOrder, c)
			}
			bySet[c].Add(li)
			return true
		})
		var cols []int
		for _, c := range setOrder {
			sub := bySet[c]
			key := sub.Key()
			idx, ok := newIndex[key]
			if !ok {
				idx = len(newSubsets)
				newIndex[key] = idx
				newSubsets = append(newSubsets, subsetEntry{links: sub.Clone(), corrSet: c})
			}
			cols = append(cols, idx)
		}
		sort.Ints(cols)
		newRows[ri] = cols
	}

	// Column support over the active rows, old and new: the retained QR
	// column for a subset is its 0/1 indicator over the active rows, so
	// equal support means the column — and its factorization state —
	// carries over untouched.
	oldSup := pl.activeSupport(pl.rows)
	newSup := pl.activeSupport(newRows)

	m, _ := pl.qr.Dims()
	rowPos := make([]int, len(pl.rows))
	active := 0
	for ri := range pl.rows {
		rowPos[ri] = -1
		if pl.activeRows[ri] {
			rowPos[ri] = active
			active++
		}
	}
	if active != m {
		return false // retained state inconsistent; let the rebuild re-derive it
	}

	keep := make([]bool, len(pl.colMap))
	covered := make(map[int]bool, len(newSup))
	newColMap := make([]int, 0, len(newSup))
	for j, oi := range pl.colMap {
		ni := oldToNew[oi]
		if ni < 0 {
			continue
		}
		if sup, ok := newSup[ni]; ok && intsEqual(oldSup[oi], sup) {
			keep[j] = true
			covered[ni] = true
			newColMap = append(newColMap, ni)
		}
	}
	var appends []int
	for ni := range newSup {
		if !covered[ni] {
			appends = append(appends, ni)
		}
	}
	sort.Ints(appends)

	// Patch a clone: deletions first (descending, so indices stay
	// valid), then the appended indicator columns, then the incremental
	// rank re-verification. Any failure discards the clone.
	qr := pl.qr.Clone()
	for j := len(pl.colMap) - 1; j >= 0; j-- {
		if !keep[j] {
			qr.DeleteCol(j)
		}
	}
	col := make([]float64, m)
	for _, ni := range appends {
		for i := range col {
			col[i] = 0
		}
		for _, ri := range newSup[ni] {
			col[rowPos[ri]] = 1
		}
		qr.AppendCol(col)
		newColMap = append(newColMap, ni)
	}
	if !qr.FullColumnRank() {
		return false // rank loss: the drift broke identifiability; rebuild cold
	}

	pl.subsets = newSubsets
	pl.index, pl.shape = newIndex, newShape()
	pl.rows = newRows
	pl.potLinks = newPot
	pl.goodLinks = newGoodLinks
	pl.goodKey = good.Key()
	pl.colMap = newColMap
	pl.qr = qr
	pl.numRepairs++
	return true
}

// activeSupport maps each subset index referenced by an active row to
// the ascending list of active row indices referencing it — the
// support signature of its QR column.
func (pl *Plan) activeSupport(rows [][]int) map[int][]int {
	sup := map[int][]int{}
	for ri, cols := range rows {
		if !pl.activeRows[ri] {
			continue
		}
		for _, c := range cols {
			sup[c] = append(sup[c], ri)
		}
	}
	return sup
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/observe"
	"repro/internal/topology"
)

// Plan is the structural state of a Correlation-complete solve, carried
// across epochs by the streaming service's warm-start path. Everything
// the enumeration, seeding and augmentation phases derive — the unknown
// universe Ê, the selected path sets P̂, the null space, the
// identifiability verdicts and the QR factorization of the reduced
// system — is a pure function of (topology, config, always-good path
// set): the observations only enter through the right-hand sides of the
// final least-squares solve. So while a shard's always-good set is
// stable from one epoch to the next, the whole structural phase can be
// skipped and the carried-forward factorization re-solved against fresh
// frequencies; the moment the always-good set (or topology, or config)
// changes, the plan invalidates and the from-scratch path runs.
//
// A Plan is owned by one solver loop: it is not safe for concurrent
// use (ComputePlanned reuses its scratch buffers).
type Plan struct {
	top *topology.Topology
	cfg Config

	// goodKey identifies the always-good path set (restricted to the
	// plan's correlation-set restriction) the structure was derived
	// from; a mismatch invalidates the plan unless Repair can prove the
	// drift leaves the structure unchanged.
	goodKey string

	// Structural output of the builder.
	subsets    []subsetEntry
	index      map[string]int
	pathSets   []*bitset.Set
	rows       [][]int
	potLinks   *bitset.Set
	goodLinks  *bitset.Set
	restrict   *bitset.Set // paths of the restriction; nil when unrestricted
	shardLinks *bitset.Set // links of the restriction; nil when unrestricted

	// repairs counts how many times Repair patched this plan across an
	// always-good drift instead of rebuilding; numRepairs counts the
	// tier-2 frontier moves RepairNumeric absorbed.
	repairs    int
	numRepairs int

	// repairFailed records that this epoch's repair attempt lost — the
	// drift was outside every repair tier's class — so the caller can
	// distinguish "cold because drift was unrepairable" from "cold
	// because topology/config changed". Carried onto the fresh plan the
	// rebuild produces, together with the attempt's duration in
	// lastRepair.
	repairFailed bool

	// Per-epoch stage durations, reset at the top of each
	// ComputePlanned call and read back through StageTimes: how long
	// the structural rebuild, the Repair re-key and the shared solve
	// tail took for the epoch this plan just served. Telemetry-only —
	// nothing in the solve depends on them.
	lastBuild  time.Duration
	lastRepair time.Duration
	lastSolve  time.Duration

	// Solve plan: the surviving equations and unknowns after the
	// iterative identifiability reduction, and the retained QR
	// factorization of the reduced 0/1 system.
	activeRows []bool
	colMap     []int
	qr         *linalg.QR // nil when no column survived

	// Per-epoch solve scratch, reused so the warm path allocates only
	// the returned Result: rhs holds the right-hand sides, x the
	// solution, qtb the Qᵀ·b workspace; the batch slabs serve
	// SolveEpochBatch the same way.
	rhs []float64
	x   []float64
	qtb []float64

	batchSlab    []float64
	batchScratch []float64
}

// RepairCount returns how many always-good drifts this plan absorbed
// via Repair rather than a rebuild. Callers use it to distinguish a
// repaired epoch from a plainly warm one.
func (pl *Plan) RepairCount() int { return pl.repairs }

// NumericRepairCount returns how many frontier moves this plan absorbed
// via the tier-2 RepairNumeric patch rather than a rebuild.
func (pl *Plan) NumericRepairCount() int { return pl.numRepairs }

// RepairFailed reports whether the epoch this plan last served fell
// back to a cold rebuild after a repair attempt lost — as opposed to a
// cold epoch caused by a topology/config change, where no repair was
// attempted. On a fresh plan the flag (and the attempt's duration in
// StageTimes' repair slot) is carried over from the invalidated
// predecessor.
func (pl *Plan) RepairFailed() bool { return pl.repairFailed }

// StageTimes returns how long the last ComputePlanned epoch spent in
// each stage: the cold structural rebuild (zero on warm epochs), the
// Repair re-key (zero unless drift was absorbed), and the shared solve
// tail. Batched drains (ComputePlannedBatch) report the build of the
// last cold rebuild and the aggregate duration of the last flushed
// multi-RHS solve — per-epoch attribution doesn't exist there by
// construction.
func (pl *Plan) StageTimes() (build, repair, solve time.Duration) {
	return pl.lastBuild, pl.lastRepair, pl.lastSolve
}

// Compute runs the Correlation-complete algorithm over the recorded
// observations. rec may be any observation store — an observe.Recorder
// over a full monitoring period, or a stream.Window over the live
// sliding window of the streaming service.
//
// ctx cancels a long solve: the enumeration, augmentation and solving
// phases all check it between units of work and return ctx.Err()
// promptly, which is how the streaming service abandons an epoch solve
// that a newer window snapshot has superseded. A nil ctx means
// context.Background().
//
// Compute is ComputePlanned without a carried-forward plan.
func Compute(ctx context.Context, top *topology.Topology, rec observe.Store, cfg Config) (*Result, error) {
	res, _, err := ComputePlanned(ctx, top, rec, cfg, nil)
	return res, err
}

// ComputePlanned is Compute with warm starts: it returns the result
// together with the plan that produced it. When prev is still valid for
// this epoch — same topology, same config, and an unchanged always-good
// path set — the structural phases (enumeration, seeding, augmentation,
// identifiability, factorization) are skipped entirely and prev's
// factorization and null-space verdicts are carried forward; the
// returned plan is then prev itself, which is how callers observe that
// the warm path ran. When the always-good set has drifted, Repair is
// attempted first: a drift that provably leaves the structural phase
// unchanged is absorbed in O(Δ) and the retained factorization keeps
// serving (prev is again returned, with RepairCount incremented). With
// Config.NumericalPlanRepair set, a frontier move that tier-1 rejects
// is then offered to RepairNumeric, which patches the factorization
// column-by-column (NumericRepairCount increments; results are
// numerically, not bitwise, equivalent to the rebuild skipped).
// Otherwise the from-scratch path runs and a fresh plan is returned.
// Warm, tier-1-repaired and cold paths all share the final solve code,
// so their results are bit-identical by construction.
func ComputePlanned(ctx context.Context, top *topology.Topology, rec observe.Store, cfg Config, prev *Plan) (*Result, *Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rec.NumPaths() != top.NumPaths() {
		return nil, nil, fmt.Errorf("core: recorder has %d paths, topology has %d", rec.NumPaths(), top.NumPaths())
	}
	if prev != nil {
		prev.lastBuild, prev.lastRepair, prev.lastSolve = 0, 0, 0
		if prev.reusable(top, rec, cfg) {
			start := time.Now()
			res, err := prev.solveEpoch(ctx, rec)
			prev.lastSolve = time.Since(start)
			if err != nil {
				return nil, nil, err
			}
			return res, prev, nil
		}
	}
	start := time.Now()
	plan, err := buildPlan(ctx, top, rec, cfg)
	if err != nil {
		return nil, nil, err
	}
	plan.lastBuild = time.Since(start)
	if prev != nil {
		// The failed repair attempt's cost belongs to this epoch: carry
		// its duration (zero when no repair was attempted) and verdict
		// onto the plan that actually serves the epoch, so stage timing
		// doesn't silently drop exactly the epochs where repair was
		// tried and lost.
		plan.lastRepair = prev.lastRepair
		plan.repairFailed = prev.repairFailed
	}
	start = time.Now()
	res, err := plan.solveEpoch(ctx, rec)
	if err != nil {
		return nil, nil, err
	}
	plan.lastSolve = time.Since(start)
	return res, plan, nil
}

// buildPlan runs the full structural phase from scratch.
func buildPlan(ctx context.Context, top *topology.Topology, rec observe.Store, cfg Config) (*Plan, error) {
	b := newBuilder(top, rec, cfg)
	defer b.close()
	defer clearStage()
	if err := b.enumerate(ctx); err != nil {
		return nil, err
	}
	if err := b.seed(ctx); err != nil {
		return nil, err
	}
	if err := b.augment(ctx); err != nil {
		return nil, err
	}
	setStage("qr")
	return b.plan(ctx)
}

// reusable reports whether the plan can serve this epoch: the
// topology and config must match, and the store's always-good path set
// (within the plan's restriction) must either be unchanged or drift
// within a repair tier's class — tier-1 Repair's provably
// structure-preserving (bit-identical) re-key first, then, when
// enabled, tier-2 RepairNumeric's factorization patch across frontier
// moves.
func (pl *Plan) reusable(top *topology.Topology, rec observe.Store, cfg Config) bool {
	pl.lastRepair, pl.repairFailed = 0, false
	if pl.top != top || !configsEqual(pl.cfg, cfg) {
		return false
	}
	good := rec.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	if pl.restrict != nil {
		good = good.Intersect(pl.restrict)
	}
	if good.Key() == pl.goodKey {
		return true
	}
	if cfg.DisablePlanRepair {
		return false
	}
	start := time.Now()
	ok := pl.Repair(good)
	if !ok && cfg.NumericalPlanRepair {
		ok = pl.RepairNumeric(good)
	}
	pl.lastRepair = time.Since(start)
	pl.repairFailed = !ok
	return ok
}

// Repair attempts to absorb a drift of the always-good path set into
// the retained plan without rebuilding, reporting whether it did. The
// repairable class is exactly the drift that leaves the good-link
// frontier in place: LinksOf(newGood) == LinksOf(oldGood), i.e. every
// link of every drifted path is still covered by some always-good
// path. This is the common drift under congestion onset on redundantly
// monitored links — a path's measurements degrade while sibling paths
// keep vouching for its links.
//
// Under that single condition the from-scratch rebuild would reproduce
// the retained plan bit for bit, because the whole structural phase is
// a pure function of (topology, config, potentially-congested links,
// single-path registrations):
//
//   - the potentially congested set is the frontier's complement, so it
//     is unchanged, and with it the enumeration's eligible links, the
//     subset combos and their registration order;
//   - a drifted path's links all lie inside the (unchanged) good-link
//     frontier — a dropped path's because it was always good, an added
//     path's because it now is — so its equation has no potentially
//     congested group and its single-path registration registers
//     nothing in either run: the unknown universe is identical;
//   - seed sets, seed rows, the augmentation trajectory and the
//     identifiability reduction read only the universe and the
//     potentially congested set, so the selected path sets, surviving
//     rows/columns and the QR factorization are identical.
//
// Repair therefore just re-keys the plan to the new good set, at the
// cost of one LinksOf sweep — O(Δ) relative to the rebuild it avoids.
// Any frontier move (the delta too large to leave coverage intact, a
// potentially congested link going quiet, a good link losing its last
// vouching path) reports false and the caller rebuilds cold; rebuild
// also re-checks full column rank, which repair never degrades since
// it leaves the factorization untouched. good must already be
// restricted to the plan's shard.
func (pl *Plan) Repair(good *bitset.Set) bool {
	if !pl.top.LinksOf(good).Equal(pl.goodLinks) {
		return false
	}
	pl.goodKey = good.Key()
	pl.repairs++
	return true
}

// EpochInfo describes how one epoch of a batched solve used the
// carried-forward plan: Warm means the structural phase was skipped,
// Repaired that the plan additionally absorbed an always-good drift
// via the tier-1 re-key, RepairedNumeric that the tier-2 factorization
// patch absorbed a frontier move, and RepairFailed that a cold rebuild
// ran because a repair attempt lost (rather than because topology or
// config changed).
type EpochInfo struct {
	Warm            bool
	Repaired        bool
	RepairedNumeric bool
	RepairFailed    bool
}

// ComputePlannedBatch solves one epoch per store, carrying the plan
// across them exactly like sequential ComputePlanned calls would —
// warm-starting while the always-good set holds, repairing across
// structure-preserving drift, rebuilding otherwise — but draining each
// maximal run of plan-compatible stores through one batched multi-RHS
// solve. This is how a lag burst of queued window snapshots catches up:
// K epochs cost one set of right-hand sides plus a single batched
// back-substitution instead of K full solve tails. Results are
// bit-identical, store for store, to the sequential path; infos
// reports per store how the plan served it.
func ComputePlannedBatch(ctx context.Context, top *topology.Topology, recs []observe.Store, cfg Config, prev *Plan) ([]*Result, []EpochInfo, *Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(recs))
	infos := make([]EpochInfo, len(recs))
	plan := prev
	var pending []observe.Store // contiguous run reusing `plan`
	flush := func(end int) error {
		if len(pending) == 0 {
			return nil
		}
		// A tier-1 repair inside the pending run is sound: Repair only
		// re-keys the plan — structure, rows and factorization are
		// untouched — so earlier stores of the run still solve over
		// exactly the state their own sequential solve would have used.
		// A tier-2 repair is not (it rewrites the factorization), which
		// is why the loop below drains the run before attempting one.
		start := time.Now()
		batch, err := plan.SolveEpochBatch(ctx, pending)
		if err != nil {
			return err
		}
		plan.lastSolve = time.Since(start)
		copy(results[end-len(pending):end], batch)
		pending = pending[:0]
		return nil
	}
	for i, rec := range recs {
		if rec.NumPaths() != top.NumPaths() {
			return nil, nil, nil, fmt.Errorf("core: recorder has %d paths, topology has %d", rec.NumPaths(), top.NumPaths())
		}
		if plan != nil {
			// With tier-2 enabled, any always-good drift may rewrite the
			// retained factorization in place; the pending run must be
			// solved against the pre-repair state first, exactly as the
			// sequential chain would have.
			if cfg.NumericalPlanRepair && !cfg.DisablePlanRepair && len(pending) > 0 &&
				plan.top == top && configsEqual(plan.cfg, cfg) {
				good := rec.AlwaysGoodPaths(cfg.AlwaysGoodTol)
				if plan.restrict != nil {
					good = good.Intersect(plan.restrict)
				}
				if good.Key() != plan.goodKey {
					if err := flush(i); err != nil {
						return nil, nil, nil, err
					}
				}
			}
			repairs, numeric := plan.RepairCount(), plan.NumericRepairCount()
			if plan.reusable(top, rec, cfg) {
				infos[i] = EpochInfo{
					Warm:            true,
					Repaired:        plan.RepairCount() > repairs,
					RepairedNumeric: plan.NumericRepairCount() > numeric,
				}
				pending = append(pending, rec)
				continue
			}
		}
		if err := flush(i); err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		fresh, err := buildPlan(ctx, top, rec, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		fresh.lastBuild = time.Since(start)
		if plan != nil {
			// Same carry as ComputePlanned: a failed repair attempt's
			// duration and verdict travel onto the fresh plan.
			fresh.lastRepair = plan.lastRepair
			fresh.repairFailed = plan.repairFailed
			infos[i].RepairFailed = plan.repairFailed
		}
		plan = fresh
		pending = append(pending, rec)
	}
	if err := flush(len(recs)); err != nil {
		return nil, nil, nil, err
	}
	return results, infos, plan, nil
}

// configsEqual compares every field that shapes a solve
// (RestrictCorrSets element-wise).
func configsEqual(a, b Config) bool {
	if a.MaxSubsetSize != b.MaxSubsetSize ||
		a.AlwaysGoodTol != b.AlwaysGoodTol ||
		a.MaxEnumPathSets != b.MaxEnumPathSets ||
		a.DisableSinglePathRegistration != b.DisableSinglePathRegistration ||
		a.DisablePlanRepair != b.DisablePlanRepair ||
		a.NumericalPlanRepair != b.NumericalPlanRepair ||
		a.NumericalRepairMaxFrac != b.NumericalRepairMaxFrac ||
		len(a.RestrictCorrSets) != len(b.RestrictCorrSets) {
		return false
	}
	for i, c := range a.RestrictCorrSets {
		if b.RestrictCorrSets[i] != c {
			return false
		}
	}
	return true
}

// plan runs the structural half of the original solve phase: resolve
// identifiability by iteratively dropping unidentifiable columns and
// the rows that mention them, then factor the reduced 0/1 system once.
// The factorization and the surviving row/column selection are retained
// on the plan; only the right-hand sides remain per-epoch work.
func (b *builder) plan(ctx context.Context) (*Plan, error) {
	pl := &Plan{
		top:        b.top,
		cfg:        b.cfg,
		goodKey:    b.alwaysGoodPaths.Key(),
		subsets:    b.subsets,
		index:      b.index,
		pathSets:   b.pathSets,
		rows:       b.rows,
		potLinks:   b.potLinks,
		goodLinks:  b.goodLinks,
		restrict:   b.restrictPaths,
		shardLinks: b.shardLinks,
	}
	nCols := len(b.subsets)
	if len(b.rows) == 0 {
		return pl, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Unidentifiable columns: rows of the final null space that are not
	// (numerically) zero. The null space is recomputed fresh here: the
	// incrementally maintained basis (Algorithm 2) is exact enough to
	// drive the selection loop, but hundreds of rank-one updates leave
	// numerical dirt that would falsely mark identifiable columns.
	finalM := linalg.NewMatrix(len(b.rows), nCols)
	for ri, cols := range b.rows {
		for _, c := range cols {
			finalM.Set(ri, c, 1)
		}
	}
	ns0 := linalg.NullSpaceBasis(finalM)
	identifiable := make([]bool, nCols)
	for i := 0; i < nCols; i++ {
		identifiable[i] = true
	}
	if ns0.Cols > 0 {
		for i := 0; i < nCols; i++ {
			for j := 0; j < ns0.Cols; j++ {
				if math.Abs(ns0.At(i, j)) > 1e-7 {
					identifiable[i] = false
					break
				}
			}
		}
	}

	// Iteratively drop unidentifiable columns and the rows that mention
	// them, re-deriving identifiability on the reduced system until it
	// has full column rank.
	activeRows := make([]bool, len(b.rows))
	for i := range activeRows {
		activeRows[i] = true
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed := false
		for ri, cols := range b.rows {
			if !activeRows[ri] {
				continue
			}
			for _, c := range cols {
				if !identifiable[c] {
					activeRows[ri] = false
					changed = true
					break
				}
			}
		}
		// Build the reduced system.
		var colMap []int
		colIdx := make([]int, nCols)
		for c := 0; c < nCols; c++ {
			colIdx[c] = -1
			if identifiable[c] {
				colIdx[c] = len(colMap)
				colMap = append(colMap, c)
			}
		}
		var mRows [][]float64
		for ri, cols := range b.rows {
			if !activeRows[ri] {
				continue
			}
			row := make([]float64, len(colMap))
			for _, c := range cols {
				row[colIdx[c]] = 1
			}
			mRows = append(mRows, row)
		}
		pl.activeRows = activeRows
		if len(colMap) == 0 {
			pl.colMap = nil
			return pl, nil
		}
		if len(mRows) >= len(colMap) {
			// FromRows copies mRows, so the in-place factorization may
			// destroy its result; the rank-deficient fallback below
			// rebuilds from mRows.
			f := linalg.FactorInPlace(linalg.FromRows(mRows))
			if f.FullColumnRank() {
				pl.colMap = colMap
				pl.qr = f
				return pl, nil
			}
		}
		// Rank fell after dropping rows (or the system is
		// under-determined): recompute identifiability on the reduced
		// system and iterate.
		ns := linalg.NullSpaceBasis(linalg.FromRows(mRows))
		for k, c := range colMap {
			for j := 0; j < ns.Cols; j++ {
				if math.Abs(ns.At(k, j)) > 1e-7 {
					identifiable[c] = false
					changed = true
					break
				}
			}
		}
		if !changed {
			// Should not happen: a full-column-rank system must solve.
			return nil, linalg.ErrRankDeficient
		}
	}
}

// MergeResults assembles per-shard restricted Results (one per
// topology.Partition shard, in shard order) into a single Result over
// the whole topology. The correlation-set partition makes the merge
// mechanical: shards share no correlation set, so the subset universes
// are disjoint and concatenate, and every joint query (SubsetGoodProb,
// CongestedProb, the per-link fallback chain) factors per correlation
// set and therefore resolves entirely within one shard's block. The
// global always-good/potentially-congested link sets are re-derived
// from rec with the given tolerance, exactly as an unrestricted run
// would. nil entries (shards without a result yet) contribute nothing.
func MergeResults(top *topology.Topology, rec observe.Store, shards []*Result, alwaysGoodTol float64) *Result {
	merged := &Result{
		index: map[string]int{},
		top:   top,
		rec:   rec,
	}
	merged.AlwaysGoodLinks = top.LinksOf(rec.AlwaysGoodPaths(alwaysGoodTol))
	merged.PotentiallyCongested = top.PotentiallyCongestedLinks(merged.AlwaysGoodLinks)
	for _, r := range shards {
		if r == nil {
			continue
		}
		base := len(merged.Subsets)
		merged.Subsets = append(merged.Subsets, r.Subsets...)
		for i, s := range r.Subsets {
			merged.index[s.Links.Key()] = base + i
		}
		merged.PathSets = append(merged.PathSets, r.PathSets...)
		merged.Rank += r.Rank
		merged.Nullity += r.Nullity
		merged.ClampedRows += r.ClampedRows
	}
	return merged
}

// resultShell allocates the Result skeleton every epoch shares: the
// subset universe with NaN probabilities, the link partitions, and the
// plan's path sets.
func (pl *Plan) resultShell(rec observe.Store) *Result {
	res := &Result{
		index:                pl.index,
		PathSets:             pl.pathSets,
		PotentiallyCongested: pl.potLinks,
		AlwaysGoodLinks:      pl.goodLinks,
		top:                  pl.top,
		rec:                  rec,
	}
	res.Subsets = make([]SubsetResult, len(pl.subsets))
	for i, s := range pl.subsets {
		res.Subsets[i] = SubsetResult{Links: s.links, CorrSet: s.corrSet, GoodProb: math.NaN()}
	}
	return res
}

// buildRHS fills dst with the epoch's right-hand sides — the empirical
// log good-frequencies of the surviving equations — returning the slice
// and the clamped-equation count.
func (pl *Plan) buildRHS(rec observe.Store, dst []float64) ([]float64, int) {
	dst = dst[:0]
	clamped := 0
	for ri := range pl.rows {
		if !pl.activeRows[ri] {
			continue
		}
		lp, cl := rec.LogGoodFreq(pl.pathSets[ri])
		if cl {
			clamped++
		}
		dst = append(dst, lp)
	}
	return dst, clamped
}

// fillSolution maps the least-squares solution back onto the result's
// identifiable subsets.
func (pl *Plan) fillSolution(res *Result, x []float64) {
	res.Rank = len(pl.colMap)
	res.Nullity = len(pl.subsets) - len(pl.colMap)
	for k, c := range pl.colMap {
		g := math.Exp(x[k])
		res.Subsets[c].GoodProb = clamp01(g)
		res.Subsets[c].Identifiable = true
	}
}

// solveScratch returns the plan's reusable solution and Qᵀb buffers,
// growing them on first use so the steady-state epoch solve allocates
// nothing beyond the returned Result.
func (pl *Plan) solveScratch() (x, qtb []float64) {
	m, n := pl.qr.Dims()
	if cap(pl.x) < n {
		pl.x = make([]float64, n)
	}
	if cap(pl.qtb) < m {
		pl.qtb = make([]float64, m)
	}
	return pl.x[:n], pl.qtb[:m]
}

// solveEpoch runs the data half of a solve against the plan: fresh
// empirical frequencies for the surviving equations, one least-squares
// solve over the retained factorization. It is the shared tail of the
// warm, repaired and cold paths.
func (pl *Plan) solveEpoch(ctx context.Context, rec observe.Store) (*Result, error) {
	setStage("solve")
	defer clearStage()
	res := pl.resultShell(rec)
	nCols := len(pl.subsets)
	if len(pl.rows) == 0 {
		res.Nullity = nCols
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rhs, clamped := pl.buildRHS(rec, pl.rhs)
	pl.rhs = rhs
	res.ClampedRows = clamped
	if len(pl.colMap) == 0 {
		res.Rank = 0
		res.Nullity = nCols
		return res, nil
	}
	x, qtb := pl.solveScratch()
	if err := pl.qr.SolveLeastSquaresInto(x, rhs, qtb); err != nil {
		return nil, err // unreachable: full column rank was verified at plan time
	}
	pl.fillSolution(res, x)
	return res, nil
}

// SolveEpochBatch solves one epoch per store against the retained
// factorization, draining all of them through a single batched
// multi-RHS back-substitution. Every store must describe the same
// always-good path set the plan was built (or repaired) for — the
// caller checks reusability per store, exactly as ComputePlanned would
// — and each result is bit-identical to a sequential solveEpoch over
// the same store (linalg guarantees the batched solve's per-vector
// arithmetic is the sequential solve's).
func (pl *Plan) SolveEpochBatch(ctx context.Context, recs []observe.Store) ([]*Result, error) {
	setStage("solve")
	defer clearStage()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]*Result, len(recs))
	if len(pl.rows) == 0 || len(pl.colMap) == 0 {
		for i, rec := range recs {
			res, err := pl.solveEpoch(ctx, rec)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	m, n := pl.qr.Dims()
	K := len(recs)
	if cap(pl.batchSlab) < K*(m+n) {
		pl.batchSlab = make([]float64, K*(m+n))
	}
	if cap(pl.batchScratch) < K*m {
		pl.batchScratch = make([]float64, K*m)
	}
	slab := pl.batchSlab[:K*(m+n)]
	rhss := make([][]float64, K)
	xs := make([][]float64, K)
	for i, rec := range recs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		results[i] = pl.resultShell(rec)
		rhs, clamped := pl.buildRHS(rec, slab[i*m:i*m:(i+1)*m])
		rhss[i] = rhs
		xs[i] = slab[K*m+i*n : K*m+(i+1)*n]
		results[i].ClampedRows = clamped
	}
	if err := pl.qr.SolveLeastSquaresBatchInto(xs, rhss, pl.batchScratch[:K*m]); err != nil {
		return nil, err // unreachable: full column rank was verified at plan time
	}
	for i := range recs {
		pl.fillSolution(results[i], xs[i])
	}
	return results, nil
}

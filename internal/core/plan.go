package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// Because the structure depends on the always-good set only through
// its good-link frontier, a plan also remembers the plans it replaced:
// the chain behind the current plan keeps up to maxRetainedPlans-1
// retired plans, each keyed to its own frontier, so a frontier that
// comes back is recalled instead of rebuilt (see reusable).
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

	// Structural output of the builder, and its structure token (see
	// newShape): every Result the plan solves carries it.
	subsets    []subsetEntry
	index      map[string]int
	shape      uint64
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

	// Solve plan: the surviving equations and unknowns after the
	// iterative identifiability reduction, and the retained QR
	// factorization of the reduced 0/1 system.
	activeRows []bool
	colMap     []int
	qr         *linalg.QR // nil when no column survived

	// Solve scratch, reused so a warm epoch allocates only the returned
	// Result: batchSlab holds the run's right-hand sides and solutions
	// back to back, batchVecs the slice headers over it, batchScratch
	// the Qᵀ·b workspace.
	batchSlab    []float64
	batchVecs    [][]float64
	batchScratch []float64

	// retired is the chain behind this plan: earlier plans of the same
	// topology and config, most recent last, each still keyed to its
	// own frontier but stripped of qr and scratch (retire). Only a
	// chain's current plan holds the list.
	retired []*Plan
}

// maxRetainedPlans caps a plan chain: the current plan plus up to
// seven retired ones. Sized on a frontier that oscillates around the
// always-good tolerance (tomobench's sparse_drift): with eight, about
// 7 % of its epochs stay cold instead of 17 %, well under the tenth
// that sets its p90 freshness.
const maxRetainedPlans = 8

// RepairCount returns how many always-good drifts this plan absorbed
// via Repair rather than a rebuild. Callers use it to distinguish a
// repaired epoch from a plainly warm one.
func (pl *Plan) RepairCount() int { return pl.repairs }

// NumericRepairCount returns how many frontier moves this plan absorbed
// via the tier-2 RepairNumeric patch rather than a rebuild.
func (pl *Plan) NumericRepairCount() int { return pl.numRepairs }

// Compute runs the Correlation-complete algorithm over the recorded
// observations. rec may be any observation store — a stream.Window
// sized to a full monitoring period, or the live sliding window of the
// streaming service.
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

// ComputePlanned is Compute with warm starts — ComputePlannedBatch over
// the single store rec: it returns the result together with the plan
// that produced it. The returned plan is prev itself when prev served
// the epoch (unchanged always-good set, or a drift a repair tier
// absorbed: RepairCount / NumericRepairCount increment), a retained
// plan of prev's chain when tier-1 recalled it (its RepairCount
// increments), a fresh plan after a cold rebuild.
func ComputePlanned(ctx context.Context, top *topology.Topology, rec observe.Store, cfg Config, prev *Plan) (*Result, *Plan, error) {
	var (
		result [1]*Result
		info   [1]EpochInfo
	)
	plan, err := advance(ctx, top, []observe.Store{rec}, cfg, prev, result[:], info[:])
	if err != nil {
		return nil, nil, err
	}
	return result[0], plan, nil
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

// reusable tries to carry the plan chain onto rec's epoch and returns
// the plan that serves it, reporting how in info (Warm is the verdict).
// The topology and config must match, and the store's always-good path
// set (within the plan's restriction) must either be unchanged or drift
// within a repair tier's class: tier-1 first — the current plan's
// provably structure-preserving (bit-identical) re-key, then the recall
// of a retired plan keyed to the same frontier — then, when enabled,
// tier-2 RepairNumeric's factorization patch across frontier moves.
// drain runs before the current plan stops serving (a recall) or has
// its factorization rewritten (a tier-2 attempt): stores already
// accepted against it must be solved first.
func (pl *Plan) reusable(top *topology.Topology, rec observe.Store, cfg Config, drain func() error) (next *Plan, info EpochInfo, err error) {
	if pl.top != top || !configsEqual(pl.cfg, cfg) {
		return pl, info, nil
	}
	pl.factor() // a no-op unless a failed call left pl retired
	good := rec.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	if pl.restrict != nil {
		good = good.Intersect(pl.restrict)
	}
	if good.Key() == pl.goodKey {
		info.Warm = true
		return pl, info, nil
	}
	start := time.Now()
	next, err = pl.recall(good, drain)
	info.RepairTime = time.Since(start)
	if err != nil {
		return nil, info, err
	}
	info.Repaired = next != nil
	if next == nil {
		next = pl
		if cfg.NumericalPlanRepair {
			if err := drain(); err != nil {
				return nil, info, err
			}
			start = time.Now()
			info.RepairedNumeric = pl.RepairNumeric(good)
			info.RepairTime += time.Since(start)
		}
	}
	info.Warm = info.Repaired || info.RepairedNumeric
	info.RepairFailed = !info.Warm
	return next, info, nil
}

// recall is tier-1 over the chain: it returns the plan whose good-link
// frontier equals good's, re-keyed to good, or nil when no plan of the
// chain has it. The current plan is tried first (Repair); then the
// retired plans, most recent first. A retired hit is refactored and
// becomes current — it takes over the chain, and pl retires into it —
// after drain has solved the stores pending against pl. The recalled
// plan is exactly what a cold build over good would produce, because
// the structural phase reads the always-good set only through its
// frontier (see Repair) and tier-2-patched plans are never retired.
func (pl *Plan) recall(good *bitset.Set, drain func() error) (*Plan, error) {
	links := pl.top.LinksOf(good)
	if pl.rekey(good, links) {
		return pl, nil
	}
	for j := len(pl.retired) - 1; j >= 0; j-- {
		hit := pl.retired[j]
		if !hit.goodLinks.Equal(links) {
			continue
		}
		if err := drain(); err != nil {
			return nil, err
		}
		hit.retired = retire(slices.Delete(pl.retired, j, j+1), pl)
		hit.factor()
		hit.rekey(good, links)
		return hit, nil
	}
	return nil, nil
}

// retire appends p to a chain as its most recent retired plan, evicting
// the oldest beyond maxRetainedPlans-1, and returns the chain. A
// retired plan keeps its structure and frontier but drops its
// factorization and solve scratch (factor rebuilds the one on recall,
// the solve regrows the other), so a chain costs little more than the
// plans' selected rows. A plan tier-2 ever patched is dropped instead:
// its structure is no longer a cold build's, and recall promises one.
func retire(chain []*Plan, p *Plan) []*Plan {
	p.retired = nil
	if p.numRepairs > 0 {
		return chain
	}
	p.qr = nil
	p.batchSlab, p.batchVecs, p.batchScratch = nil, nil, nil
	if len(chain) == maxRetainedPlans-1 {
		chain = slices.Delete(chain, 0, 1)
	}
	return append(chain, p)
}

// factor restores a retired plan's factorization: it refactors the
// reduced 0/1 system of Identify's final iteration, rebuilt from rows,
// activeRows and colMap by the same reducedSystem call, so the result
// is the same bits the build retained. A no-op while the plan holds one
// (or has no identifiable column to factor).
func (pl *Plan) factor() {
	if pl.qr != nil || len(pl.colMap) == 0 {
		return
	}
	colIdx := make([]int, len(pl.subsets))
	for c := range colIdx {
		colIdx[c] = -1
	}
	for j, c := range pl.colMap {
		colIdx[c] = j
	}
	pl.qr = linalg.FactorInPlace(reducedSystem(pl.rows, pl.activeRows, colIdx, len(pl.colMap)))
}

// Repair attempts to absorb a drift of the always-good path set into
// the plan without rebuilding, reporting whether it did. The
// repairable class is exactly the drift that leaves the good-link
// frontier in place: LinksOf(newGood) == LinksOf(oldGood), i.e. every
// link of every drifted path is still covered by some always-good
// path. This is the common drift under congestion onset on redundantly
// monitored links — a path's measurements degrade while sibling paths
// keep vouching for its links.
//
// Under that single condition the from-scratch rebuild would reproduce
// the plan bit for bit, because the whole structural phase is a pure
// function of (topology, config, potentially-congested links,
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
// The same argument holds for any plan of the chain, however many
// epochs ago it served: ComputePlannedBatch's tier-1 tries Repair on
// the current plan and then recalls the retired plan whose frontier
// matches. Any other frontier move (a potentially congested link going
// quiet, a good link losing its last vouching path) reports false and
// the caller rebuilds cold; rebuild also re-checks full column rank,
// which repair never degrades since it leaves the factorization
// untouched. good must already be restricted to the plan's shard.
func (pl *Plan) Repair(good *bitset.Set) bool {
	return pl.rekey(good, pl.top.LinksOf(good))
}

// rekey is Repair with good's frontier already computed.
func (pl *Plan) rekey(good, links *bitset.Set) bool {
	if !links.Equal(pl.goodLinks) {
		return false
	}
	pl.goodKey = good.Key()
	pl.repairs++
	return true
}

// Tier says which path through the plan served an epoch: Warm means
// the structural phase was skipped, Repaired that the epoch's
// always-good drift was absorbed by the tier-1 re-key — of the current
// plan, or of a retained plan recalled because its frontier came back —
// RepairedNumeric that the tier-2 factorization patch absorbed a
// frontier move (only with Config.NumericalPlanRepair), and
// RepairFailed that a cold rebuild ran because a repair attempt lost
// (rather than because topology or config changed, where none is
// attempted). It is the record every layer above embeds — snapshots,
// /v1/status, /v1/epochs, the cluster wire — hence the JSON keys.
type Tier struct {
	Warm            bool `json:"warm"`
	Repaired        bool `json:"repaired"`
	RepairedNumeric bool `json:"repaired_numeric"`
	RepairFailed    bool `json:"repair_failed,omitempty"`
}

// EpochInfo is what ComputePlannedBatch reports per store: the tier
// that served the epoch and its stage durations. BuildTime (the cold
// structural rebuild; zero on warm epochs) and RepairTime (the repair
// attempt — tier-1 re-key, tier-2 patch, or a failed probe that fell
// back cold; zero when the always-good set held) belong to the store
// by construction. SolveTime is the shared solve tail: a run of
// plan-compatible stores is solved in one multi-RHS call whose duration
// is split evenly across the run, so it is exact for a run of one.
// Telemetry only — nothing in the solve depends on the durations.
type EpochInfo struct {
	Tier
	BuildTime  time.Duration
	RepairTime time.Duration
	SolveTime  time.Duration
}

// ComputePlannedBatch solves one epoch per store, carrying the plan
// across them: per store, prev (then whichever plan served the previous
// store) is reused when it is still valid — same topology, same config,
// an unchanged always-good path set — so the structural phases
// (enumeration, seeding, augmentation, identifiability, factorization)
// are skipped and the retained factorization is re-solved against fresh
// frequencies. When the always-good set has drifted, tier-1 is attempted
// first: a drift that provably leaves the structural phase unchanged is
// absorbed in O(Δ) by Repair, and a frontier that an earlier plan of
// the chain was built for recalls that plan (one refactorization, still
// bit-identical to a rebuild). With Config.NumericalPlanRepair set, a
// frontier move that tier-1 rejects is then offered to RepairNumeric,
// which patches the factorization column by column (results are
// numerically, not bitwise, equivalent to the rebuild skipped).
// Otherwise the from-scratch path runs and a fresh plan takes over.
//
// Each maximal run of plan-compatible stores drains through one batched
// multi-RHS solve, which is how a lag burst of queued window snapshots
// catches up: K epochs cost K right-hand sides plus a single batched
// back-substitution. Warm, tier-1-repaired and cold epochs all share
// that tail, and linalg pins its per-vector arithmetic independent of
// K, so results are bit-identical however the stores are grouped into
// calls. infos reports per store how the plan served it; the returned
// plan is the one that served the last store (prev itself if it served
// them all), carrying the chain. A cold build inherits prev's chain —
// prev retires into it — when topology and config match; it starts a
// new chain otherwise. On error prev stays usable.
func ComputePlannedBatch(ctx context.Context, top *topology.Topology, recs []observe.Store, cfg Config, prev *Plan) ([]*Result, []EpochInfo, *Plan, error) {
	results := make([]*Result, len(recs))
	infos := make([]EpochInfo, len(recs))
	plan, err := advance(ctx, top, recs, cfg, prev, results, infos)
	if err != nil {
		return nil, nil, nil, err
	}
	return results, infos, plan, nil
}

// advance is ComputePlannedBatch writing into caller-owned results and
// infos (one slot per store) — the only place a plan is carried,
// repaired, rebuilt or solved against.
func advance(ctx context.Context, top *topology.Topology, recs []observe.Store, cfg Config, prev *Plan, results []*Result, infos []EpochInfo) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan := prev
	run := 0 // recs[i-run:i] await the solve tail against plan
	// flush solves the pending run ending before store end. A tier-1
	// repair of the current plan inside the run is sound: Repair only
	// re-keys the plan — structure, rows and factorization are
	// untouched — so earlier stores of the run still solve over exactly
	// the state their own call would have used. A recall switches plans
	// and so flushes first (reusable's drain).
	flush := func(end int) error {
		if run == 0 {
			return nil
		}
		start := time.Now()
		if err := plan.solveEpochs(ctx, recs[end-run:end], results[end-run:end]); err != nil {
			return err
		}
		share := time.Since(start) / time.Duration(run)
		for i := end - run; i < end; i++ {
			infos[i].SolveTime = share
		}
		run = 0
		return nil
	}
	for i, rec := range recs {
		if rec.NumPaths() != top.NumPaths() {
			return nil, fmt.Errorf("core: recorder has %d paths, topology has %d", rec.NumPaths(), top.NumPaths())
		}
		if plan != nil {
			next, info, err := plan.reusable(top, rec, cfg, func() error { return flush(i) })
			if err != nil {
				return nil, err
			}
			infos[i] = info
			if info.Warm {
				plan = next
				run++
				continue
			}
		}
		if err := flush(i); err != nil {
			return nil, err
		}
		// A failed repair attempt's verdict and duration stay on this
		// store's info: its cost belongs to the epoch that rebuilt.
		start := time.Now()
		fresh, err := buildPlan(ctx, top, rec, cfg)
		if err != nil {
			return nil, err
		}
		infos[i].BuildTime = time.Since(start)
		if plan != nil && plan.top == top && configsEqual(plan.cfg, cfg) {
			fresh.retired = retire(plan.retired, plan)
		}
		plan, run = fresh, 1
	}
	if err := flush(len(recs)); err != nil {
		return nil, err
	}
	return plan, nil
}

// configsEqual compares every field that shapes a solve
// (RestrictCorrSets element-wise).
func configsEqual(a, b Config) bool {
	if a.MaxSubsetSize != b.MaxSubsetSize ||
		a.AlwaysGoodTol != b.AlwaysGoodTol ||
		a.MaxEnumPathSets != b.MaxEnumPathSets ||
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

// plan runs the structural half of the original solve phase: Identify
// over the selected rows. The factorization and the surviving
// row/column selection are retained on the plan; only the right-hand
// sides remain per-epoch work.
func (b *builder) plan(ctx context.Context) (*Plan, error) {
	pl := &Plan{
		top:        b.top,
		cfg:        b.cfg,
		goodKey:    b.alwaysGoodPaths.Key(),
		subsets:    b.subsets,
		index:      b.index,
		shape:      newShape(),
		pathSets:   b.pathSets,
		rows:       b.rows,
		potLinks:   b.potLinks,
		goodLinks:  b.goodLinks,
		restrict:   b.restrictPaths,
		shardLinks: b.shardLinks,
	}
	for i := range pl.subsets {
		pl.subsets[i].seedSet = nil // build-only
	}
	var err error
	pl.colMap, pl.activeRows, pl.qr, err = Identify(ctx, b.rows, len(b.subsets))
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// Identify resolves which columns of the 0/1 log-linear system rows
// (each row lists the columns, < nCols, whose log-unknowns sum to one
// right-hand side) are identifiable, and factors the system they span.
// It iteratively drops unidentifiable columns and the rows that mention
// them, re-deriving identifiability on the reduced system until it has
// full column rank. colMap lists the surviving columns in ascending
// order, active marks the surviving rows, and qr factors the reduced
// system — one row per active row, one column per colMap entry, as
// reducedSystem builds it — so qr.SolveLeastSquares over the
// right-hand sides of the active rows solves for the colMap columns.
// With no row, or no identifiable column, colMap and qr are nil.
// linalg.ErrRankDeficient means the iteration stalled on a
// rank-deficient system, which should not happen.
func Identify(ctx context.Context, rows [][]int, nCols int) (colMap []int, active []bool, qr *linalg.QR, err error) {
	if len(rows) == 0 {
		return nil, nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Unidentifiable columns: rows of the null space that are not
	// (numerically) zero. The null space is computed fresh here: a
	// build's incrementally maintained basis (Algorithm 2) is exact
	// enough to drive its selection loop, but hundreds of rank-one
	// updates leave numerical dirt that would falsely mark identifiable
	// columns.
	finalM := linalg.NewMatrix(len(rows), nCols)
	for ri, cols := range rows {
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

	activeRows := make([]bool, len(rows))
	for i := range activeRows {
		activeRows[i] = true
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		changed := false
		for ri, cols := range rows {
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
		if len(colMap) == 0 {
			return nil, activeRows, nil, nil
		}
		// The in-place factorization destroys its input, so the
		// rank-deficient fallback below rebuilds the system.
		sys := reducedSystem(rows, activeRows, colIdx, len(colMap))
		if sys.Rows >= len(colMap) {
			f := linalg.FactorInPlace(sys)
			if f.FullColumnRank() {
				return colMap, activeRows, f, nil
			}
		}
		// Rank fell after dropping rows (or the system is
		// under-determined): recompute identifiability on the reduced
		// system and iterate.
		ns := linalg.NullSpaceBasis(reducedSystem(rows, activeRows, colIdx, len(colMap)))
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
			return nil, nil, nil, linalg.ErrRankDeficient
		}
	}
}

// reducedSystem builds the dense 0/1 system Identify factors: one row
// per active equation, one column per identifiable subset (colIdx maps
// a subset to its column, -1 when dropped). With no active row it is
// 0×0, as linalg.FromRows builds an empty system. factor rebuilds a
// retired plan's factorization through it too, which is what makes a
// recall bit-identical to the build.
func reducedSystem(rows [][]int, activeRows []bool, colIdx []int, n int) *linalg.Matrix {
	active := 0
	for _, a := range activeRows {
		if a {
			active++
		}
	}
	if active == 0 {
		return linalg.NewMatrix(0, 0)
	}
	m := linalg.NewMatrix(active, n)
	r := 0
	for ri, cols := range rows {
		if !activeRows[ri] {
			continue
		}
		row := m.Row(r)
		for _, c := range cols {
			row[colIdx[c]] = 1
		}
		r++
	}
	return m
}

// resultShell allocates the Result skeleton every epoch shares: the
// subset universe with NaN probabilities, the link partitions, and the
// plan's path sets.
func (pl *Plan) resultShell(rec observe.Store) *Result {
	res := &Result{
		index:                pl.index,
		shape:                pl.shape,
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

// solveEpochs runs the data half of a solve — the shared tail of
// the warm, repaired and cold paths — for one epoch per store, writing
// results[i] for recs[i]: fresh empirical frequencies for the surviving
// equations of each, then a single batched multi-RHS back-substitution
// over the retained factorization. Every store must describe the
// always-good path set the plan was built (or repaired) for; advance
// checks that per store. Each result is independent of how many stores
// share the call (linalg guarantees the batched solve's per-vector
// arithmetic is the single solve's).
func (pl *Plan) solveEpochs(ctx context.Context, recs []observe.Store, results []*Result) error {
	setStage("solve")
	defer clearStage()
	K := len(recs)
	m, n := 0, 0
	if len(pl.colMap) > 0 {
		m, n = pl.qr.Dims()
	}
	slab := slices.Grow(pl.batchSlab[:0], K*(m+n))[:K*(m+n)]
	vecs := slices.Grow(pl.batchVecs[:0], 2*K)[:2*K]
	pl.batchSlab, pl.batchVecs = slab, vecs
	rhss, xs := vecs[:K], vecs[K:]
	for i, rec := range recs {
		if err := ctx.Err(); err != nil {
			return err
		}
		res := pl.resultShell(rec)
		rhss[i], res.ClampedRows = pl.buildRHS(rec, slab[i*m:i*m:(i+1)*m])
		xs[i] = slab[K*m+i*n : K*m+(i+1)*n]
		res.Nullity = len(pl.subsets) // until fillSolution says otherwise
		results[i] = res
	}
	if n == 0 {
		return nil // no equations, or no identifiable unknown: nothing to solve
	}
	pl.batchScratch = slices.Grow(pl.batchScratch[:0], K*m)[:K*m]
	if err := pl.qr.SolveLeastSquaresBatchInto(xs, rhss, pl.batchScratch); err != nil {
		return err // unreachable: full column rank was verified at plan time
	}
	for i := range recs {
		pl.fillSolution(results[i], xs[i])
	}
	return nil
}

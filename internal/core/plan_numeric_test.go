package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
)

// verifyPatchedFactorization asserts the tier-2 claim precisely: the
// patched factorization solves exactly the plan's re-derived reduced
// system — active rows × identifiable columns — to within tolerance of
// a from-scratch factorization of that same matrix.
func verifyPatchedFactorization(t *testing.T, label string, pl *Plan) {
	t.Helper()
	colIdx := make(map[int]int, len(pl.colMap))
	for j, c := range pl.colMap {
		colIdx[c] = j
	}
	var mRows [][]float64
	for ri, cols := range pl.rows {
		if !pl.activeRows[ri] {
			continue
		}
		row := make([]float64, len(pl.colMap))
		for _, c := range cols {
			j, ok := colIdx[c]
			if !ok {
				t.Fatalf("%s: active row %d references subset %d outside colMap", label, ri, c)
			}
			row[j] = 1
		}
		mRows = append(mRows, row)
	}
	m, n := pl.qr.Dims()
	if m != len(mRows) || n != len(pl.colMap) {
		t.Fatalf("%s: patched QR is %dx%d, re-derived system %dx%d", label, m, n, len(mRows), len(pl.colMap))
	}
	fresh := linalg.FactorInPlace(linalg.FromRows(mRows))
	if !fresh.FullColumnRank() {
		t.Fatalf("%s: re-derived system is rank deficient despite the incremental check", label)
	}
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err1 := fresh.SolveLeastSquares(b)
	got, err2 := pl.qr.SolveLeastSquares(b)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: solve errors %v / %v", label, err1, err2)
	}
	for k := range want {
		if math.Abs(want[k]-got[k]) > 1e-8*(1+math.Abs(want[k])) {
			t.Fatalf("%s: x[%d] patched %v vs refactor %v", label, k, got[k], want[k])
		}
	}
}

// looselyMatchesCold checks the relaxed tier-2 contract against the
// cold solve: the link partitions — a pure function of the data — must
// match exactly, and every subset identifiable under both structural
// selections must agree to solver tolerance. Cold's richer selection
// is allowed extra path sets and unknowns the retained plan never saw.
func looselyMatchesCold(t *testing.T, label string, res, cold *Result) {
	t.Helper()
	if !res.PotentiallyCongested.Equal(cold.PotentiallyCongested) ||
		!res.AlwaysGoodLinks.Equal(cold.AlwaysGoodLinks) {
		t.Fatalf("%s: link partitions differ from cold", label)
	}
	for _, sub := range res.Subsets {
		if !sub.Identifiable {
			continue
		}
		g, ok := cold.SubsetGoodProb(sub.Links)
		if !ok {
			continue
		}
		if math.Abs(g-sub.GoodProb) > 1e-6 {
			t.Fatalf("%s: subset %s retained %v vs cold %v", label, sub.Links, sub.GoodProb, g)
		}
	}
}

// Under randomized frontier-move drift with tier-2 enabled, the plan
// chain must exercise all three tiers; every tier-2 epoch's patched
// factorization must match a fresh factorization of its re-derived
// system and satisfy the loose contract against cold. Warm and tier-1
// epochs stay bit-identical to cold until the first tier-2 patch on
// the chain — after that the retained structural selection may
// legitimately differ from cold's until the next cold rebuild resets
// it, so post-patch epochs are held to the loose contract instead.
func TestNumericalRepairUnderFrontierDrift(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02, NumericalPlanRepair: true, NumericalRepairMaxFrac: 0.6}
	var warm, repaired, numeric, rebuilt, bitIdentical int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := stream.NewWindow(top.NumPaths(), 400)
		var plan *Plan
		patched := false // chain has diverged from cold's selection
		for epoch := 0; epoch < 14; epoch++ {
			// Frontier moves both ways: congestion onset on path 2
			// (link 4 loses its last extra vouching path) and clearing.
			driftEpoch(w, rng, top.NumPaths(), 100, epoch%5 == 3 || epoch%7 == 5)
			prevRepairs, prevNumeric := 0, 0
			if plan != nil {
				prevRepairs, prevNumeric = plan.RepairCount(), plan.NumericRepairCount()
			}
			res, next, err := ComputePlanned(context.Background(), top, w, cfg, plan)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Compute(context.Background(), top, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d epoch %d", seed, epoch)
			switch {
			case plan == nil || next != plan:
				rebuilt++
				patched = false // fresh build: back in lockstep with cold
				resultsEqual(t, label+" (cold)", res, cold)
			case next.NumericRepairCount() > prevNumeric:
				numeric++
				patched = true
				verifyPatchedFactorization(t, label, next)
				looselyMatchesCold(t, label+" (tier-2)", res, cold)
			case next.RepairCount() > prevRepairs:
				repaired++
				if patched {
					looselyMatchesCold(t, label+" (tier-1, post-patch)", res, cold)
				} else {
					bitIdentical++
					resultsEqual(t, label+" (tier-1)", res, cold)
				}
			default:
				warm++
				if patched {
					looselyMatchesCold(t, label+" (warm, post-patch)", res, cold)
				} else {
					bitIdentical++
					resultsEqual(t, label+" (warm)", res, cold)
				}
			}
			plan = next
		}
	}
	if numeric == 0 {
		t.Fatal("drift schedule never exercised RepairNumeric")
	}
	if repaired == 0 {
		t.Fatal("drift schedule never exercised tier-1 Repair")
	}
	if warm == 0 {
		t.Fatal("drift schedule never warm-started")
	}
	if bitIdentical == 0 {
		t.Fatal("drift schedule never checked a pre-patch epoch bit-identically")
	}
	t.Logf("tiers: warm=%d repaired=%d numeric=%d rebuilt=%d (bit-identical checks: %d)",
		warm, repaired, numeric, rebuilt, bitIdentical)
}

// rankLossTopology builds the smallest fixture whose frontier move
// provably breaks identifiability for the retained selection: one
// always-good link vouched for by two dedicated paths, one congested
// link, and a spanning path. When the good link's dedicated paths both
// degrade, the retained single equation suddenly references two
// unknowns — an under-determined patch the incremental rank check must
// reject.
func rankLossTopology(t *testing.T) *topology.Topology {
	t.Helper()
	links := []topology.Link{{ID: 0, AS: 0}, {ID: 1, AS: 1}}
	paths := []topology.Path{
		{ID: 0, Links: []int{0, 1}},
		{ID: 1, Links: []int{0}},
		{ID: 2, Links: []int{1}},
		{ID: 3, Links: []int{1}},
	}
	top, err := topology.NewChecked(links, paths, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// A frontier move that breaks identifiability of the retained system
// must fall back to the cold rebuild via the incremental rank check —
// with the failed attempt recorded on the fresh plan.
func TestNumericalRepairRankLossFallsBack(t *testing.T) {
	top := rankLossTopology(t)
	cfg := Config{MaxSubsetSize: 2, NumericalPlanRepair: true, NumericalRepairMaxFrac: 1}
	w := stream.NewWindow(top.NumPaths(), 200)
	rng := rand.New(rand.NewSource(3))
	addIntervals := func(p2Congests bool) {
		cong := bitset.New(top.NumPaths())
		for i := 0; i < 100; i++ {
			cong.Clear()
			if rng.Float64() < 0.5 { // link 0 congests
				cong.Add(0)
				cong.Add(1)
			}
			if p2Congests && rng.Float64() < 0.4 { // link 1 congests
				cong.Add(0)
				cong.Add(2)
				cong.Add(3)
			}
			w.Add(cong)
		}
	}
	addIntervals(false)
	_, plan, err := ComputePlanned(context.Background(), top, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.qr == nil {
		t.Fatal("phase-1 plan has no factorization")
	}
	// Phase 2: link 1 starts congesting, so paths 2 and 3 leave the
	// always-good set and link 1 enters the potentially-congested set.
	// The retained equations now reference unknowns {0} and {1} with
	// fewer independent equations than unknowns.
	addIntervals(true)
	res, info, next := computeOne(t, top, w, cfg, plan)
	if next == plan {
		t.Fatal("rank-breaking frontier move was absorbed instead of rebuilt")
	}
	if next.NumericRepairCount() != 0 {
		t.Fatal("fresh plan reports a numeric repair")
	}
	if info.Warm || !info.RepairFailed {
		t.Fatalf("rebuilt epoch does not record the failed repair attempt: %+v", info)
	}
	if info.RepairTime <= 0 {
		t.Fatal("failed repair attempt's duration was discarded")
	}
	cold, err := Compute(context.Background(), top, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "rank-loss fallback", res, cold)
}

// The Δ gate: a frontier move larger than NumericalRepairMaxFrac of
// the link universe must decline the patch and rebuild cold.
func TestNumericalRepairDeltaGate(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02, NumericalPlanRepair: true, NumericalRepairMaxFrac: 1e-9}
	rng := rand.New(rand.NewSource(1))
	w := stream.NewWindow(top.NumPaths(), 400)
	var plan *Plan
	declined := false
	for epoch := 0; epoch < 12; epoch++ {
		driftEpoch(w, rng, top.NumPaths(), 100, epoch%5 == 3)
		res, info, next := computeOne(t, top, w, cfg, plan)
		if next.NumericRepairCount() != 0 {
			t.Fatalf("epoch %d: Δ gate of 1e-9 admitted a patch", epoch)
		}
		if plan != nil && next != plan && info.RepairFailed {
			declined = true
		}
		cold, err := Compute(context.Background(), top, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("epoch %d", epoch), res, cold)
		plan = next
	}
	if !declined {
		t.Fatal("schedule never presented a frontier move to the gate")
	}
}

// Without the option, a frontier move must keep rebuilding cold — and
// the failed tier-1 attempt's duration must be reported with the epoch
// that rebuilt, while a config-change rebuild reports nothing.
func TestRepairFailureTimingCarried(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	rng := rand.New(rand.NewSource(1))
	w := stream.NewWindow(top.NumPaths(), 400)
	var plan *Plan
	sawFailedRepair := false
	for epoch := 0; epoch < 12; epoch++ {
		driftEpoch(w, rng, top.NumPaths(), 100, epoch%5 == 3)
		res, info, next := computeOne(t, top, w, cfg, plan)
		if next.NumericRepairCount() != 0 {
			t.Fatal("numeric repair ran without the option")
		}
		if plan != nil && next != plan && info.RepairFailed {
			sawFailedRepair = true
			if info.RepairTime <= 0 {
				t.Fatalf("epoch %d: failed repair duration missing from the rebuilt epoch", epoch)
			}
		}
		cold, err := Compute(context.Background(), top, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("epoch %d", epoch), res, cold)
		plan = next
	}
	if !sawFailedRepair {
		t.Fatal("schedule never exercised a failed repair attempt")
	}
	// A config change invalidates without attempting repair: no failed
	// flag, no carried duration.
	cfg2 := cfg
	cfg2.MaxSubsetSize = 1
	_, info, next := computeOne(t, top, w, cfg2, plan)
	if next == plan {
		t.Fatal("plan survived a config change")
	}
	if info.RepairFailed {
		t.Fatal("config-change rebuild reported a failed repair")
	}
	if info.RepairTime != 0 {
		t.Fatal("config-change rebuild carried a repair duration")
	}
}

// One K-store ComputePlannedBatch with tier-2 enabled must reproduce
// the chain of K one-store calls bit for bit: the batch drains every pending run
// before a tier-2 patch rewrites the factorization, so each store
// solves against exactly the plan state its sequential solve saw.
func TestComputePlannedBatchMatchesSequentialNumeric(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02, NumericalPlanRepair: true, NumericalRepairMaxFrac: 0.6}
	rng := rand.New(rand.NewSource(2))
	w := stream.NewWindow(top.NumPaths(), 400)
	var stores []observe.Store
	for epoch := 0; epoch < 12; epoch++ {
		driftEpoch(w, rng, top.NumPaths(), 100, epoch%5 == 3)
		stores = append(stores, w.Clone())
	}
	sequential, seqInfos, plan := sequentialChain(t, top, stores, cfg)
	batched, infos, batchPlan, err := ComputePlannedBatch(context.Background(), top, stores, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	numericInfos := 0
	for i := range stores {
		resultsEqual(t, fmt.Sprintf("store %d", i), batched[i], sequential[i])
		infosAgree(t, i, infos[i], seqInfos[i])
		if infos[i].RepairedNumeric {
			numericInfos++
		}
	}
	if numericInfos == 0 {
		t.Fatal("batch schedule never exercised a tier-2 repair")
	}
	if batchPlan.NumericRepairCount() != plan.NumericRepairCount() {
		t.Fatalf("batch plan saw %d numeric repairs, sequential %d",
			batchPlan.NumericRepairCount(), plan.NumericRepairCount())
	}
}

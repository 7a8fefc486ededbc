package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
)

// resultsEqual asserts two results are bit-identical in every published
// field.
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Subsets) != len(b.Subsets) {
		t.Fatalf("%s: %d vs %d subsets", label, len(a.Subsets), len(b.Subsets))
	}
	for i := range a.Subsets {
		sa, sb := a.Subsets[i], b.Subsets[i]
		if !sa.Links.Equal(sb.Links) || sa.CorrSet != sb.CorrSet || sa.Identifiable != sb.Identifiable {
			t.Fatalf("%s: subset %d structure mismatch", label, i)
		}
		if sa.Identifiable && sa.GoodProb != sb.GoodProb {
			t.Fatalf("%s: subset %d GoodProb %v != %v", label, i, sa.GoodProb, sb.GoodProb)
		}
	}
	if a.Rank != b.Rank || a.Nullity != b.Nullity || a.ClampedRows != b.ClampedRows {
		t.Fatalf("%s: rank/nullity/clamped (%d,%d,%d) vs (%d,%d,%d)",
			label, a.Rank, a.Nullity, a.ClampedRows, b.Rank, b.Nullity, b.ClampedRows)
	}
	if !a.PotentiallyCongested.Equal(b.PotentiallyCongested) || !a.AlwaysGoodLinks.Equal(b.AlwaysGoodLinks) {
		t.Fatalf("%s: link partitions differ", label)
	}
	if len(a.PathSets) != len(b.PathSets) {
		t.Fatalf("%s: %d vs %d path sets", label, len(a.PathSets), len(b.PathSets))
	}
	for i := range a.PathSets {
		if !a.PathSets[i].Equal(b.PathSets[i]) {
			t.Fatalf("%s: path set %d differs", label, i)
		}
	}
}

// fig1Window streams correlated congestion over the Fig. 1 topology
// into a sliding window; congestible selects which links may congest.
func fig1Window(top *topology.Topology, capacity, intervals int, seed int64, congestible *bitset.Set) *stream.Window {
	w := stream.NewWindow(top.NumPaths(), capacity)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < intervals; i++ {
		cong := bitset.New(top.NumLinks())
		if congestible.Contains(0) && rng.Float64() < 0.3 {
			cong.Add(0)
		}
		if congestible.Contains(1) && rng.Float64() < 0.4 { // correlated pair {e2, e3}
			cong.Add(1)
			cong.Add(2)
		}
		if congestible.Contains(3) && rng.Float64() < 0.2 {
			cong.Add(3)
		}
		congPaths := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		w.Add(congPaths)
	}
	return w
}

// A warm-started solve over a shifted window must be bit-identical to a
// from-scratch solve over the same window, epoch after epoch, as long
// as the always-good path set stays put.
func TestPlanWarmSolveMatchesCold(t *testing.T) {
	top := topology.Fig1Case1()
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	congestible := bitset.FromIndices(top.NumLinks(), 0, 1, 2, 3)
	w := fig1Window(top, 500, 600, 1, congestible)

	res, plan, err := ComputePlanned(context.Background(), top, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("cold solve returned no plan")
	}
	cold0, err := Compute(context.Background(), top, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "epoch 0 planned vs Compute", res, cold0)

	rng := rand.New(rand.NewSource(99))
	warmEpochs := 0
	for epoch := 1; epoch <= 8; epoch++ {
		// Shift the window: more correlated congestion, same always-good
		// set (every link keeps congesting somewhere in the window).
		for i := 0; i < 120; i++ {
			cong := bitset.New(top.NumLinks())
			if rng.Float64() < 0.35 {
				cong.Add(1)
				cong.Add(2)
			}
			if rng.Float64() < 0.25 {
				cong.Add(0)
			}
			if rng.Float64() < 0.15 {
				cong.Add(3)
			}
			congPaths := bitset.New(top.NumPaths())
			for p := 0; p < top.NumPaths(); p++ {
				if top.PathLinks(p).Intersects(cong) {
					congPaths.Add(p)
				}
			}
			w.Add(congPaths)
		}
		warm, nextPlan, err := ComputePlanned(context.Background(), top, w, cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Compute(context.Background(), top, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "warm vs cold", warm, cold)
		if nextPlan == plan {
			warmEpochs++
		}
		plan = nextPlan
	}
	if warmEpochs == 0 {
		t.Fatal("no epoch reused the plan: the warm path never ran")
	}
}

// Changing the always-good path set must invalidate the plan (a fresh
// structural build), and a stale plan must never leak stale structure
// into the result.
func TestPlanInvalidatedByAlwaysGoodChange(t *testing.T) {
	top := topology.Fig1Case1()
	cfg := Config{MaxSubsetSize: 2}
	// Phase 1: only e1 congests — p3 = {e4, e3} stays always good.
	w := fig1Window(top, 400, 400, 5, bitset.FromIndices(top.NumLinks(), 0))
	_, plan, err := ComputePlanned(context.Background(), top, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan")
	}
	// Phase 2: e4 starts congesting too — p3 loses its always-good
	// status, so the carried-forward structure no longer applies.
	for i := 0; i < 400; i++ {
		w.Add(fig1Window(top, 1, 1, int64(100+i), bitset.FromIndices(top.NumLinks(), 0, 3)).CongestedAt(0))
	}
	res, nextPlan, err := ComputePlanned(context.Background(), top, w, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if nextPlan == plan {
		t.Fatal("plan survived an always-good change")
	}
	cold, err := Compute(context.Background(), top, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "rebuilt vs cold", res, cold)

	// A different config must also invalidate.
	_, p2, err := ComputePlanned(context.Background(), top, w, Config{MaxSubsetSize: 1}, nextPlan)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == nextPlan {
		t.Fatal("plan survived a config change")
	}
}

// driftTopology is a fixture engineered for always-good drift: links
// 0–5 are redundantly covered by stable paths (the good-link frontier
// holds while the flappy paths 6/7/8 drift in and out of the
// always-good set — Plan.Repair's class), links 6–7 are covered only by
// permanently congested paths (the stable potentially congested
// universe), and path 2 is the sole extra cover of link 4 (its flaps
// move the frontier and force rebuilds).
func driftTopology(t *testing.T) *topology.Topology {
	t.Helper()
	links := make([]topology.Link, 8)
	for i := range links {
		links[i] = topology.Link{ID: i, AS: i / 2}
	}
	paths := []topology.Path{
		{ID: 0, Links: []int{0, 1}},    // stable good
		{ID: 1, Links: []int{2, 3}},    // stable good
		{ID: 2, Links: []int{4, 5}},    // flaps only in frontier-move phases
		{ID: 3, Links: []int{1, 3, 5}}, // stable good
		{ID: 4, Links: []int{6, 7}},    // permanently congested
		{ID: 5, Links: []int{6}},       // permanently congested
		{ID: 6, Links: []int{0, 2}},    // flappy within the good frontier
		{ID: 7, Links: []int{1, 4, 5}}, // flappy within the good frontier
		{ID: 8, Links: []int{3}},       // flappy within the good frontier
		{ID: 9, Links: []int{7}},       // permanently congested
	}
	corrSets := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	top, err := topology.NewChecked(links, paths, corrSets)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// driftEpoch streams one epoch of observations: stable paths stay
// clean, the permanently congested paths keep their base rates, and
// each flappy path (plus, in frontier-move epochs, path 2) is in a
// congested or clean phase chosen by the rng.
func driftEpoch(w *stream.Window, rng *rand.Rand, numPaths, intervals int, frontierMove bool) {
	prob := make([]float64, numPaths)
	prob[4], prob[5], prob[9] = 0.5, 0.4, 0.45
	for _, p := range []int{6, 7, 8} {
		if rng.Intn(2) == 0 {
			prob[p] = 0.3
		}
	}
	if frontierMove {
		prob[2] = 0.3
	}
	cong := bitset.New(numPaths)
	for i := 0; i < intervals; i++ {
		cong.Clear()
		for p := 0; p < numPaths; p++ {
			if prob[p] > 0 && rng.Float64() < prob[p] {
				cong.Add(p)
			}
		}
		w.Add(cong)
	}
}

// Under randomized always-good drift, a plan carried through
// ComputePlanned — warm-started, repaired, or rebuilt as each epoch
// demands — must stay bit-identical to a from-scratch solve, and the
// drift schedule must exercise all three paths.
func TestPlanRepairMatchesColdUnderDrift(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	var warm, repaired, rebuilt int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := stream.NewWindow(top.NumPaths(), 400)
		var plan *Plan
		for epoch := 0; epoch < 12; epoch++ {
			driftEpoch(w, rng, top.NumPaths(), 100, epoch%5 == 3)
			prevRepairs := 0
			if plan != nil {
				prevRepairs = plan.RepairCount()
			}
			res, next, err := ComputePlanned(context.Background(), top, w, cfg, plan)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Compute(context.Background(), top, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d epoch %d", seed, epoch), res, cold)
			switch {
			case plan == nil || next != plan:
				rebuilt++
			case next.RepairCount() > prevRepairs:
				repaired++
			default:
				warm++
			}
			plan = next
		}
	}
	if repaired == 0 {
		t.Fatal("drift schedule never exercised Plan.Repair")
	}
	if rebuilt <= 4 { // 4 first epochs are inherently cold
		t.Fatal("drift schedule never forced a rebuild")
	}
	if warm == 0 {
		t.Fatal("drift schedule never warm-started")
	}
}

// solveEpoch is the solve tail at K = 1, for tests that hold a bare
// plan rather than going through ComputePlanned.
func (pl *Plan) solveEpoch(ctx context.Context, rec observe.Store) (*Result, error) {
	var res [1]*Result
	err := pl.solveEpochs(ctx, []observe.Store{rec}, res[:])
	return res[0], err
}

// computeOne is ComputePlanned with the epoch's info: a
// ComputePlannedBatch over the single store rec.
func computeOne(t *testing.T, top *topology.Topology, rec observe.Store, cfg Config, prev *Plan) (*Result, EpochInfo, *Plan) {
	t.Helper()
	results, infos, plan, err := ComputePlannedBatch(context.Background(), top, []observe.Store{rec}, cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	return results[0], infos[0], plan
}

// sequentialChain solves stores one call at a time, carrying the plan.
func sequentialChain(t *testing.T, top *topology.Topology, stores []observe.Store, cfg Config) ([]*Result, []EpochInfo, *Plan) {
	t.Helper()
	var plan *Plan
	results := make([]*Result, len(stores))
	infos := make([]EpochInfo, len(stores))
	for i, rec := range stores {
		results[i], infos[i], plan = computeOne(t, top, rec, cfg, plan)
	}
	return results, infos, plan
}

// infosAgree asserts that a store's info from the K-store call equals
// the one-store call's in everything but the durations, and that on
// both sides a repair duration is reported exactly when a repair was
// attempted.
func infosAgree(t *testing.T, i int, batch, seq EpochInfo) {
	t.Helper()
	if batch.Tier != seq.Tier {
		t.Fatalf("store %d: batch tier %+v vs sequential %+v", i, batch.Tier, seq.Tier)
	}
	for side, info := range map[string]EpochInfo{"batch": batch, "sequential": seq} {
		attempted := info.Repaired || info.RepairedNumeric || info.RepairFailed
		if attempted != (info.RepairTime > 0) {
			t.Fatalf("store %d (%s): repair attempted=%v but RepairTime=%v", i, side, attempted, info.RepairTime)
		}
		if info.Warm != (info.BuildTime == 0) || info.SolveTime <= 0 {
			t.Fatalf("store %d (%s): stage times inconsistent with tier: %+v", i, side, info)
		}
	}
}

// One K-store ComputePlannedBatch must reproduce the chain of K
// one-store calls store for store — warm runs drained through the
// batched multi-RHS solve included — under the same drift schedule.
func TestComputePlannedBatchMatchesSequential(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	rng := rand.New(rand.NewSource(2))
	w := stream.NewWindow(top.NumPaths(), 400)
	var stores []observe.Store
	for epoch := 0; epoch < 10; epoch++ {
		driftEpoch(w, rng, top.NumPaths(), 100, epoch == 5)
		stores = append(stores, w.Clone())
	}
	sequential, seqInfos, plan := sequentialChain(t, top, stores, cfg)
	batched, infos, batchPlan, err := ComputePlannedBatch(context.Background(), top, stores, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmInfos, repairedInfos := 0, 0
	for i := range stores {
		resultsEqual(t, fmt.Sprintf("store %d", i), batched[i], sequential[i])
		infosAgree(t, i, infos[i], seqInfos[i])
		if infos[i].Warm {
			warmInfos++
		}
		if infos[i].Repaired {
			repairedInfos++
		}
	}
	if infos[0].Warm {
		t.Fatal("first store reported warm with no prior plan")
	}
	if warmInfos == 0 {
		t.Fatal("no store drained warm: the batch never amortized a solve")
	}
	if batchPlan == nil {
		t.Fatal("batch returned no plan")
	}
	// The batch must have reused a plan across stores rather than
	// rebuilding each one (the whole point): the final plans of both
	// chains absorbed the same number of repairs, and every repair is
	// visible in the per-store infos.
	if batchPlan.RepairCount() != plan.RepairCount() {
		t.Fatalf("batch plan saw %d repairs, sequential %d", batchPlan.RepairCount(), plan.RepairCount())
	}
	if batchPlan.RepairCount() > 0 && repairedInfos == 0 {
		t.Fatal("plan repaired but no store reported Repaired")
	}
}

// A restricted solve over one partition shard must reproduce exactly
// the shard's slice of the full system: same subsets in the same
// relative order, same probabilities, same identifiability.
func TestRestrictedSolveMatchesShardSlice(t *testing.T) {
	// Two disjoint copies of Fig. 1 glued into one topology.
	base := topology.Fig1Case1()
	n, m := base.NumLinks(), base.NumPaths()
	var links []topology.Link
	var paths []topology.Path
	var corrSets [][]int
	for copyi := 0; copyi < 2; copyi++ {
		lo := copyi * n
		for _, l := range base.Links {
			links = append(links, topology.Link{ID: lo + l.ID, AS: copyi*10 + l.AS})
		}
		for _, p := range base.Paths {
			shifted := make([]int, len(p.Links))
			for i, li := range p.Links {
				shifted[i] = lo + li
			}
			paths = append(paths, topology.Path{ID: copyi*m + p.ID, Links: shifted})
		}
		for _, cs := range base.CorrSets {
			shifted := make([]int, len(cs))
			for i, li := range cs {
				shifted[i] = lo + li
			}
			corrSets = append(corrSets, shifted)
		}
	}
	top, err := topology.NewChecked(links, paths, corrSets)
	if err != nil {
		t.Fatal(err)
	}
	part := topology.NewPartition(top)
	if part.NumShards() != 2 {
		t.Fatalf("glued topology has %d shards, want 2", part.NumShards())
	}

	// Stream congestion that touches both halves.
	rec := stream.NewWindow(top.NumPaths(), 800)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 800; i++ {
		cong := bitset.New(top.NumLinks())
		for copyi := 0; copyi < 2; copyi++ {
			lo := copyi * n
			if rng.Float64() < 0.35 {
				cong.Add(lo + 1)
				cong.Add(lo + 2)
			}
			if rng.Float64() < 0.2 {
				cong.Add(lo)
			}
		}
		congPaths := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(cong) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}

	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	full, err := Compute(context.Background(), top, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < part.NumShards(); s++ {
		restricted := cfg
		restricted.RestrictCorrSets = part.ShardCorrSets(s)
		shard, err := Compute(context.Background(), top, rec, restricted)
		if err != nil {
			t.Fatal(err)
		}
		// Every shard subset must appear in the full result with the
		// same probability and identifiability.
		for _, sub := range shard.Subsets {
			g, ok := full.SubsetGoodProb(sub.Links)
			if sub.Identifiable {
				if !ok || g != sub.GoodProb {
					t.Fatalf("shard %d subset %s: restricted %v vs full (%v,%v)", s, sub.Links, sub.GoodProb, g, ok)
				}
			} else if ok {
				t.Fatalf("shard %d subset %s identifiable only in full run", s, sub.Links)
			}
		}
		// And per-link estimates over the shard's links must agree.
		part.ShardLinks(s).ForEach(func(e int) bool {
			pf, xf := full.LinkCongestProbOrFallback(e)
			ps, xs := shard.LinkCongestProbOrFallback(e)
			if pf != ps || xf != xs {
				t.Fatalf("shard %d link %d: restricted (%v,%v) vs full (%v,%v)", s, e, ps, xs, pf, xf)
			}
			return true
		})
	}
	// Merging the shard blocks reproduces the full run's totals.
	blocks := make([]*Result, part.NumShards())
	for s := range blocks {
		restricted := cfg
		restricted.RestrictCorrSets = part.ShardCorrSets(s)
		if blocks[s], err = Compute(context.Background(), top, rec, restricted); err != nil {
			t.Fatal(err)
		}
	}
	merged := MergeResults(top, rec, blocks, cfg.AlwaysGoodTol)
	if merged.Rank != full.Rank || merged.Nullity != full.Nullity || merged.ClampedRows != full.ClampedRows {
		t.Fatalf("merged totals (%d,%d,%d) vs full (%d,%d,%d)",
			merged.Rank, merged.Nullity, merged.ClampedRows, full.Rank, full.Nullity, full.ClampedRows)
	}
	if !merged.PotentiallyCongested.Equal(full.PotentiallyCongested) {
		t.Fatal("merged potentially-congested set differs from full run")
	}
	for e := 0; e < top.NumLinks(); e++ {
		pm, xm := merged.LinkCongestProbOrFallback(e)
		pf, xf := full.LinkCongestProbOrFallback(e)
		if pm != pf || xm != xf {
			t.Fatalf("link %d: merged (%v,%v) vs full (%v,%v)", e, pm, xm, pf, xf)
		}
	}
}

// oscillationStores streams driftTopology through a window the size of
// one epoch, so each epoch's frontier is its own: odd epochs run
// driftEpoch's frontier move, even ones do not. The good-link
// frontier then flips A/B/A/B… (link 4 leaves it whenever path 2 and
// path 7 both congest) while the flappy paths drift inside each
// frontier.
func oscillationStores(top *topology.Topology, seed int64, epochs int) []observe.Store {
	const intervals = 400
	rng := rand.New(rand.NewSource(seed))
	w := stream.NewWindow(top.NumPaths(), intervals)
	stores := make([]observe.Store, epochs)
	for epoch := range stores {
		driftEpoch(w, rng, top.NumPaths(), intervals, epoch%2 == 1)
		stores[epoch] = w.Clone()
	}
	return stores
}

// chainTally classifies a chain's epochs from their EpochInfo alone: a
// recall is a Repaired epoch whose frontier differs from the previous
// epoch's (a re-key of the current plan keeps the frontier).
type chainTally struct {
	cold, recalls, rekeys, warm int
	frontiers                   map[string]bool
}

func tallyChain(t *testing.T, label string, infos []EpochInfo, plans []*Plan) chainTally {
	t.Helper()
	tally := chainTally{frontiers: map[string]bool{}}
	prevFrontier := ""
	for i, info := range infos {
		frontier := plans[i].goodLinks.Key()
		switch {
		case !info.Warm:
			tally.cold++
		case info.Repaired && frontier != prevFrontier:
			tally.recalls++
			if i == 0 || plans[i] == plans[i-1] {
				t.Fatalf("%s epoch %d: recall reported but the plan did not change", label, i)
			}
			if info.BuildTime != 0 || info.RepairTime <= 0 {
				t.Fatalf("%s epoch %d: recall timed as %+v", label, i, info)
			}
		case info.Repaired:
			tally.rekeys++
		default:
			tally.warm++
		}
		tally.frontiers[frontier] = true
		prevFrontier = frontier
		if len(plans[i].retired) > maxRetainedPlans-1 {
			t.Fatalf("%s epoch %d: %d retired plans", label, i, len(plans[i].retired))
		}
	}
	return tally
}

// On a frontier that oscillates between two states, tier-1 recalls the
// plan built for the returning frontier instead of rebuilding it: the
// chain runs exactly one cold build per distinct frontier, and every
// epoch — recalled ones included — stays bit-identical to a stateless
// Compute. A RestrictCorrSets shard holding the moving link behaves the
// same way.
func TestPlanRecallUnderFrontierOscillation(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	shardCfg := cfg
	shardCfg.RestrictCorrSets = topology.NewPartition(top).ShardCorrSets(0) // links 0–5
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"plain", cfg}, {"restricted-shard", shardCfg}} {
		t.Run(tc.name, func(t *testing.T) {
			stores := oscillationStores(top, 3, 16)
			infos := make([]EpochInfo, len(stores))
			plans := make([]*Plan, len(stores))
			var plan *Plan
			for i, rec := range stores {
				var res *Result
				res, infos[i], plan = computeOne(t, top, rec, tc.cfg, plan)
				plans[i] = plan
				cold, err := Compute(context.Background(), top, rec, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				resultsEqual(t, fmt.Sprintf("epoch %d", i), res, cold)
			}
			tally := tallyChain(t, tc.name, infos, plans)
			if len(tally.frontiers) != 2 {
				t.Fatalf("schedule visited %d frontiers, want 2", len(tally.frontiers))
			}
			if tally.cold != len(tally.frontiers) {
				t.Fatalf("%d cold builds for %d distinct frontiers", tally.cold, len(tally.frontiers))
			}
			if tally.recalls == 0 || tally.warm+tally.rekeys == 0 {
				t.Fatalf("schedule too narrow: %+v", tally)
			}
		})
	}
}

// A recall in the middle of a K-store ComputePlannedBatch switches the
// serving plan under a pending run: the batch must drain that run
// first and reproduce the one-store-at-a-time chain store for store.
func TestComputePlannedBatchRecallMidRun(t *testing.T) {
	top := driftTopology(t)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	stores := oscillationStores(top, 3, 16)
	sequential, seqInfos, _ := sequentialChain(t, top, stores, cfg)
	batched, infos, _, err := ComputePlannedBatch(context.Background(), top, stores, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	midRunRecall := false
	for i := range stores {
		resultsEqual(t, fmt.Sprintf("store %d", i), batched[i], sequential[i])
		infosAgree(t, i, infos[i], seqInfos[i])
		if i > 0 && infos[i-1].Warm && infos[i].Repaired &&
			!batched[i].AlwaysGoodLinks.Equal(batched[i-1].AlwaysGoodLinks) {
			midRunRecall = true
		}
	}
	if !midRunRecall {
		t.Fatal("no recall landed behind a pending warm run")
	}
}

// toggleTopology has n links, each its own correlation set, each
// covered by a dedicated toggle path and by one spanning path: link i
// leaves the good-link frontier exactly when toggle path i congests,
// so every subset of links is a frontier some store selects.
func toggleTopology(t *testing.T, n int) *topology.Topology {
	t.Helper()
	links := make([]topology.Link, n)
	paths := make([]topology.Path, n+1)
	corrSets := make([][]int, n)
	spanning := make([]int, n)
	for i := range links {
		links[i] = topology.Link{ID: i, AS: i}
		paths[i] = topology.Path{ID: i, Links: []int{i}}
		corrSets[i] = []int{i}
		spanning[i] = i
	}
	paths[n] = topology.Path{ID: n, Links: spanning}
	top, err := topology.NewChecked(links, paths, corrSets)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// toggleStore records a store whose potentially congested links are
// the bits of mask.
func toggleStore(top *topology.Topology, mask int, seed int64) observe.Store {
	rng := rand.New(rand.NewSource(seed))
	rec := stream.NewWindow(top.NumPaths(), 300)
	cong := bitset.New(top.NumLinks())
	for i := 0; i < 300; i++ {
		cong.Clear()
		for e := 0; e < top.NumLinks(); e++ {
			if mask&(1<<e) != 0 && rng.Float64() < 0.3 {
				cong.Add(e)
			}
		}
		paths := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(cong) {
				paths.Add(p)
			}
		}
		rec.Add(paths)
	}
	return rec
}

// retiredFrontiers lists a chain's retired plans by potentially
// congested mask, oldest first.
func retiredFrontiers(pl *Plan) []int {
	var masks []int
	for _, r := range pl.retired {
		mask := 0
		r.potLinks.ForEach(func(e int) bool {
			mask |= 1 << e
			return true
		})
		masks = append(masks, mask)
	}
	return masks
}

// The chain keeps at most seven retired plans and evicts the oldest
// first; a config change starts a new chain; a recalled plan takes the
// old current's place in the list.
func TestPlanChainRetention(t *testing.T) {
	top := toggleTopology(t, 4)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	var plan *Plan
	solve := func(mask int) EpochInfo {
		t.Helper()
		rec := toggleStore(top, mask, int64(mask))
		res, info, next := computeOne(t, top, rec, cfg, plan)
		cold, err := Compute(context.Background(), top, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("mask %b", mask), res, cold)
		plan = next
		return info
	}
	for mask := 1; mask <= 9; mask++ {
		if info := solve(mask); info.Warm || (mask > 1 && !info.RepairFailed) {
			t.Fatalf("mask %b: new frontier served as %+v", mask, info.Tier)
		}
	}
	if got, want := fmt.Sprint(retiredFrontiers(plan)), fmt.Sprint([]int{2, 3, 4, 5, 6, 7, 8}); got != want {
		t.Fatalf("retired frontiers %s, want %s (mask 1 evicted first)", got, want)
	}
	if info := solve(3); !info.Warm || !info.Repaired || info.BuildTime != 0 {
		t.Fatalf("retained frontier not recalled: %+v", info)
	}
	if got, want := fmt.Sprint(retiredFrontiers(plan)), fmt.Sprint([]int{2, 4, 5, 6, 7, 8, 9}); got != want {
		t.Fatalf("after recall retired frontiers %s, want %s", got, want)
	}
	for _, r := range plan.retired {
		if r.qr != nil || r.batchSlab != nil || r.retired != nil {
			t.Fatal("a retired plan kept its factorization, scratch or chain")
		}
	}
	if info := solve(1); info.Warm {
		t.Fatalf("evicted frontier served warm: %+v", info)
	}
	if got, want := fmt.Sprint(retiredFrontiers(plan)), fmt.Sprint([]int{4, 5, 6, 7, 8, 9, 3}); got != want {
		t.Fatalf("after rebuild retired frontiers %s, want %s", got, want)
	}

	cfg.MaxSubsetSize = 1
	if info := solve(2); info.Warm || info.RepairFailed {
		t.Fatalf("config change served as %+v", info.Tier)
	}
	if len(plan.retired) != 0 {
		t.Fatalf("config change kept %d retired plans", len(plan.retired))
	}
}

// A plan tier-2 patched no longer has a cold build's structure, so it
// is dropped rather than retired and never recalled: returning to the
// frontier it was built for rebuilds.
func TestPlanChainDropsNumericallyRepaired(t *testing.T) {
	top := toggleTopology(t, 4)
	// One moved link out of two passes the Δ gate; the 3-link moves
	// below do not.
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02, NumericalPlanRepair: true, NumericalRepairMaxFrac: 0.5}
	var plan *Plan
	solve := func(mask int) EpochInfo {
		t.Helper()
		var info EpochInfo
		_, info, plan = computeOne(t, top, toggleStore(top, mask, int64(mask)), cfg, plan)
		return info
	}
	solve(0b0011)
	patched := plan
	if info := solve(0b0001); !info.RepairedNumeric || plan != patched {
		t.Fatalf("frontier move not patched: %+v", info.Tier)
	}
	if info := solve(0b1100); info.Warm {
		t.Fatalf("3-link move passed the Δ gate: %+v", info.Tier)
	}
	if len(plan.retired) != 0 {
		t.Fatal("the tier-2-patched plan was retired")
	}
	if info := solve(0b0001); info.Warm || !info.RepairFailed {
		t.Fatalf("patched plan's original frontier served as %+v", info.Tier)
	}
}

// A batch that fails after a recall has already retired prev leaves
// prev usable: the caller keeps it, and its next epoch refactors it and
// still matches Compute.
func TestPlanUsableAfterFailedRecallBatch(t *testing.T) {
	top := toggleTopology(t, 4)
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	storeA, storeB := toggleStore(top, 0b0011, 1), toggleStore(top, 0b0110, 2)
	_, _, plan := computeOne(t, top, storeA, cfg, nil)
	_, _, prev := computeOne(t, top, storeB, cfg, plan)
	bad := stream.NewWindow(top.NumPaths()-1, 1)
	if _, _, _, err := ComputePlannedBatch(context.Background(), top, []observe.Store{storeA, bad}, cfg, prev); err == nil {
		t.Fatal("mismatched store accepted")
	}
	if prev.qr != nil {
		t.Fatal("the recall did not retire prev; the test no longer covers the failed-batch path")
	}
	res, info, _ := computeOne(t, top, storeB, cfg, prev)
	if !info.Warm {
		t.Fatalf("prev's own frontier served as %+v", info.Tier)
	}
	cold, err := Compute(context.Background(), top, storeB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "prev after a failed batch", res, cold)
}

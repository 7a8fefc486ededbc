package estimator_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"

	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
)

// subsetMap flattens an estimate's subsets keyed by link set, so
// estimates whose subset IDs are ordered differently (the merged
// sharded layout groups by shard) can still be compared value-for-value.
func subsetMap(t *testing.T, est *estimator.Estimate) map[string]estimator.SubsetEstimate {
	t.Helper()
	out := make(map[string]estimator.SubsetEstimate, len(est.Subsets))
	for _, sub := range est.Subsets {
		key := sub.Links.Key()
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate subset %s", sub.Links)
		}
		out[key] = sub
	}
	return out
}

// assertEstimatesMatch asserts two estimates are bit-identical in every
// per-link and per-subset value (subset order may differ).
func assertEstimatesMatch(t *testing.T, label string, a, b *estimator.Estimate) {
	t.Helper()
	for e := range a.LinkProb {
		if a.LinkProb[e] != b.LinkProb[e] || a.LinkExact[e] != b.LinkExact[e] {
			t.Fatalf("%s: link %d: (%v,%v) vs (%v,%v)",
				label, e, a.LinkProb[e], a.LinkExact[e], b.LinkProb[e], b.LinkExact[e])
		}
	}
	if !a.PotentiallyCongested.Equal(b.PotentiallyCongested) {
		t.Fatalf("%s: potentially-congested sets differ", label)
	}
	if a.Rank != b.Rank || a.Nullity != b.Nullity || a.ClampedRows != b.ClampedRows {
		t.Fatalf("%s: rank/nullity/clamped (%d,%d,%d) vs (%d,%d,%d)",
			label, a.Rank, a.Nullity, a.ClampedRows, b.Rank, b.Nullity, b.ClampedRows)
	}
	sa, sb := subsetMap(t, a), subsetMap(t, b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d subsets", label, len(sa), len(sb))
	}
	for key, subA := range sa {
		subB, ok := sb[key]
		if !ok {
			t.Fatalf("%s: subset %s missing from second estimate", label, subA.Links)
		}
		if subA.Identifiable != subB.Identifiable || subA.CorrSet != subB.CorrSet {
			t.Fatalf("%s: subset %s flags differ", label, subA.Links)
		}
		if subA.Identifiable && subA.GoodProb != subB.GoodProb {
			t.Fatalf("%s: subset %s GoodProb %v vs %v", label, subA.Links, subA.GoodProb, subB.GoodProb)
		}
	}
}

// kindFixture simulates a monitoring period over a generated topology
// (the same generation path cmd/topogen uses).
func kindFixture(t *testing.T, kind experiment.TopologyKind, seed int64, scenario netsim.Scenario) fixture {
	t.Helper()
	scale := experiment.Small()
	top, err := experiment.BuildTopology(kind, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	mc := netsim.DefaultConfig(scenario)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), 300)
	for ti := 0; ti < 300; ti++ {
		rec.Add(model.Interval(ti, rng).CongestedPaths)
	}
	return fixture{name: kind.String(), top: top, rec: rec}
}

// The acceptance pin: correlation-complete-sharded must be bit-identical
// to correlation-complete on the Fig. 1 topologies, a Brite scenario,
// and on genuinely multi-shard topologies (Brite seed 4 and Sparse
// seed 1 partition into two shards at this scale).
func TestShardedBitIdenticalToPlain(t *testing.T) {
	fixtures := []fixture{
		fig1Fixture("fig1-case1", topology.Fig1Case1()),
		fig1Fixture("fig1-case2", topology.Fig1Case2()),
		kindFixture(t, experiment.Brite, 1, netsim.RandomCongestion),
		kindFixture(t, experiment.Brite, 4, netsim.RandomCongestion),
		kindFixture(t, experiment.Sparse, 1, netsim.RandomCongestion),
	}
	multiShard := 0
	for _, fx := range fixtures {
		if topology.NewPartition(fx.top).NumShards() > 1 {
			multiShard++
		}
		plain, err := estimator.New(estimator.CorrelationComplete)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := estimator.New(estimator.CorrelationCompleteSharded)
		if err != nil {
			t.Fatal(err)
		}
		opts := []estimator.Option{estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02)}
		a, err := plain.Estimate(context.Background(), fx.top, fx.rec, opts...)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		b, err := sharded.Estimate(context.Background(), fx.top, fx.rec, opts...)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		assertEstimatesMatch(t, fx.name, a, b)
		// Joint queries must survive the merge: every identifiable
		// subset's congestion probability agrees with the plain Detail.
		if b.Detail == nil {
			t.Fatalf("%s: merged estimate lost Detail", fx.name)
		}
		for _, sub := range b.Subsets {
			if !sub.Identifiable {
				continue
			}
			cp, ok := b.Detail.CongestedProb(sub.Links)
			cpWant, okWant := a.Detail.CongestedProb(sub.Links)
			if ok != okWant || (ok && cp != cpWant) {
				t.Fatalf("%s: CongestedProb(%s) = (%v,%v), plain (%v,%v)", fx.name, sub.Links, cp, ok, cpWant, okWant)
			}
		}
	}
	if multiShard == 0 {
		t.Fatal("no fixture exercised a multi-shard partition")
	}
}

// A retained ShardedSolver solving every shard over the one whole window
// epoch after epoch (warm) must keep producing estimates bit-identical
// to the stateless registry estimator run from scratch over the same
// data: a shard's solve reads only its own columns, so no per-shard
// store is needed.
func TestShardedSolverWarmMatchesRegistry(t *testing.T) {
	fx := kindFixture(t, experiment.Sparse, 1, netsim.RandomCongestion)
	part := topology.NewPartition(fx.top)
	if part.NumShards() < 2 {
		t.Fatalf("fixture has %d shards, want ≥ 2", part.NumShards())
	}
	opts := []estimator.Option{estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02)}
	sv, err := estimator.NewShardedSolver(fx.top, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := estimator.New(estimator.CorrelationCompleteSharded)
	if err != nil {
		t.Fatal(err)
	}

	// Stream the recorded intervals into a plain window and solve an
	// epoch every 60 intervals, every shard over that same window; verify
	// each merged estimate against the stateless estimator run from
	// scratch over a fresh window holding exactly the surviving
	// intervals.
	const capacity = 200
	win := stream.NewWindow(fx.top.NumPaths(), capacity)
	warmEpochs := 0
	for ti := 0; ti < fx.rec.T(); ti++ {
		win.Add(fx.rec.CongestedAt(ti))
		if (ti+1)%60 != 0 {
			continue
		}
		blocks := make([]*core.Result, sv.NumShards())
		warm := false
		for s := range blocks {
			res, info, err := sv.SolveShard(context.Background(), s, win)
			if err != nil {
				t.Fatal(err)
			}
			blocks[s] = res
			warm = warm || info.Warm
		}
		if warm {
			warmEpochs++
		}
		got := sv.Merge(blocks, win)
		ref := stream.NewWindow(fx.top.NumPaths(), capacity)
		lo := 0
		if ti+1 > capacity {
			lo = ti + 1 - capacity
		}
		for k := lo; k <= ti; k++ {
			ref.Add(fx.rec.CongestedAt(k))
		}
		want, err := cold.Estimate(context.Background(), fx.top, ref, opts...)
		if err != nil {
			t.Fatal(err)
		}
		assertEstimatesMatch(t, "warm epoch", got, want)
	}
	if warmEpochs == 0 {
		t.Fatal("no epoch warm-started: the carried-forward plans never applied")
	}
}

// SolveShardBatch must reproduce sequential SolveShard calls block for
// block — the batched multi-RHS drain is a pure catch-up optimization.
func TestShardedSolverBatchMatchesSequential(t *testing.T) {
	fx := kindFixture(t, experiment.Sparse, 1, netsim.RandomCongestion)
	part := topology.NewPartition(fx.top)
	if part.NumShards() < 2 {
		t.Fatalf("fixture has %d shards, want ≥ 2", part.NumShards())
	}
	opts := []estimator.Option{estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02)}
	seqSv, err := estimator.NewShardedSolver(fx.top, opts...)
	if err != nil {
		t.Fatal(err)
	}
	batchSv, err := estimator.NewShardedSolver(fx.top, opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Freeze a checkpoint of the window each 60 intervals, mimicking the
	// server's stride backlog; every shard solves the same checkpoints.
	const capacity = 200
	win := stream.NewWindow(fx.top.NumPaths(), capacity)
	var checkpoints []observe.Store
	for ti := 0; ti < fx.rec.T(); ti++ {
		win.Add(fx.rec.CongestedAt(ti))
		if (ti+1)%60 == 0 {
			checkpoints = append(checkpoints, win.Clone())
		}
	}
	if len(checkpoints) < 3 {
		t.Fatalf("only %d checkpoints", len(checkpoints))
	}
	for s := 0; s < part.NumShards(); s++ {
		batchRes, batchInfos, err := batchSv.SolveShardBatch(context.Background(), s, checkpoints)
		if err != nil {
			t.Fatal(err)
		}
		for k, obs := range checkpoints {
			wantRes, wantInfo, err := seqSv.SolveShard(context.Background(), s, obs)
			if err != nil {
				t.Fatal(err)
			}
			if batchInfos[k].Warm != wantInfo.Warm || batchInfos[k].Repaired != wantInfo.Repaired {
				t.Fatalf("shard %d ck %d: info (%+v) != sequential (%+v)", s, k, batchInfos[k], wantInfo)
			}
			got := batchSv.Merge([]*core.Result{batchRes[k]}, obs)
			want := seqSv.Merge([]*core.Result{wantRes}, obs)
			assertEstimatesMatch(t, fmt.Sprintf("shard %d ck %d", s, k), got, want)
		}
	}
}

// While every block keeps the structure of the previous merge's blocks —
// warm plans — Merge reuses the merged subset index and path sets, and
// its estimate stays bit-identical to a merge built from scratch; a
// block with a new structure rebuilds them.
func TestShardedMergeReusesStructure(t *testing.T) {
	fx := kindFixture(t, experiment.Sparse, 1, netsim.RandomCongestion)
	opts := []estimator.Option{estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02)}
	sv, err := estimator.NewShardedSolver(fx.top, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if sv.NumShards() < 2 {
		t.Fatalf("fixture has %d shards, want ≥ 2", sv.NumShards())
	}
	solveAll := func() []*core.Result {
		blocks := make([]*core.Result, sv.NumShards())
		for k := range blocks {
			if blocks[k], _, err = sv.SolveShard(context.Background(), k, fx.rec); err != nil {
				t.Fatal(err)
			}
		}
		return blocks
	}
	fromScratch := func(blocks []*core.Result) *estimator.Estimate {
		fresh, err := estimator.NewShardedSolver(fx.top, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.Merge(blocks, fx.rec)
	}
	shared := func(a, b *estimator.Estimate) bool {
		return &a.Detail.PathSets[0] == &b.Detail.PathSets[0]
	}
	first := sv.Merge(solveAll(), fx.rec)
	warm := solveAll()
	second := sv.Merge(warm, fx.rec)
	if !shared(first, second) {
		t.Fatal("a merge of warm blocks rebuilt the merged structure")
	}
	assertEstimatesMatch(t, "warm merge", fromScratch(warm), second)

	b := warm[1]
	warm[1] = core.NewShardResult(b.Subsets, b.PathSets, b.Rank, b.Nullity, b.ClampedRows)
	third := sv.Merge(warm, fx.rec)
	if shared(second, third) {
		t.Fatal("a merge over a block of a new structure reused the cached one")
	}
	assertEstimatesMatch(t, "rebuilt merge", fromScratch(warm), third)
	if !shared(third, sv.Merge(warm, fx.rec)) {
		t.Fatal("the rebuilt structure was not cached")
	}

	// The server's shard loops merge concurrently, alternating cache
	// hits with structure changes (run under -race in CI).
	variants := [][]*core.Result{warm, solveAll()}
	want := []*estimator.Estimate{fromScratch(variants[0]), fromScratch(variants[1])}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := (g + i) % 2
				got := sv.Merge(variants[v], fx.rec)
				for e := range got.LinkProb {
					if got.LinkProb[e] != want[v].LinkProb[e] || got.LinkExact[e] != want[v].LinkExact[e] {
						t.Errorf("goroutine %d merge %d: link %d differs from a fresh merge", g, i, e)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

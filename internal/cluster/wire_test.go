package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/observe"
	"repro/internal/topology"
)

// testTopology builds the deterministic sparse topology the server
// tests use, asserting it actually exercises the partition seam.
func testTopology(t testing.TB, seed int64) *topology.Topology {
	t.Helper()
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func shardedTopology(t testing.TB) *topology.Topology {
	t.Helper()
	top := testTopology(t, 1)
	if n := topology.NewPartition(top).NumShards(); n < 2 {
		t.Fatalf("test topology has %d shards, want ≥ 2", n)
	}
	return top
}

func testSolverOpts() []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(2),
		estimator.WithAlwaysGoodTol(0.02),
	}
}

// randomRecorder fills a recorder with seeded random congestion rows.
func randomRecorder(top *topology.Topology, intervals int, seed int64) *observe.Recorder {
	rng := rand.New(rand.NewSource(seed))
	rec := observe.NewRecorder(top.NumPaths())
	for i := 0; i < intervals; i++ {
		set := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if rng.Float64() < 0.15 {
				set.Add(p)
			}
		}
		rec.Add(set)
	}
	return rec
}

func TestFingerprint(t *testing.T) {
	a1, a2 := testTopology(t, 1), testTopology(t, 1)
	if Fingerprint(a1) != Fingerprint(a2) {
		t.Fatal("same generation, different fingerprints")
	}
	if Fingerprint(a1) == Fingerprint(testTopology(t, 2)) {
		t.Fatal("different topologies share a fingerprint")
	}
}

// A solved shard block must survive encode → JSON → decode with every
// field bit-identical, NaN good-probabilities included: merged cluster
// estimates are only exact if the wire is.
func TestResultWireRoundTrip(t *testing.T) {
	top := shardedTopology(t)
	sv, err := estimator.NewShardedSolver(top, testSolverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rec := randomRecorder(top, 200, 7)
	origBlocks := make([]*core.Result, sv.NumShards())
	wireBlocks := make([]*core.Result, sv.NumShards())
	for shard := 0; shard < sv.NumShards(); shard++ {
		res, info, err := sv.SolveShard(context.Background(), shard, rec)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		raw, err := json.Marshal(encodeResult(shard, 200, rec.T(), res, info))
		if err != nil {
			t.Fatal(err)
		}
		var over ShardResultResponse
		if err := json.Unmarshal(raw, &over); err != nil {
			t.Fatal(err)
		}
		if over.Shard != shard || over.SeqHigh != 200 || over.T != rec.T() {
			t.Fatalf("shard %d: header mangled: %+v", shard, over)
		}
		got, err := over.decodeResult(top)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if len(got.Subsets) != len(res.Subsets) {
			t.Fatalf("shard %d: %d subsets, want %d", shard, len(got.Subsets), len(res.Subsets))
		}
		sawNaN := false
		for i, want := range res.Subsets {
			g := got.Subsets[i]
			if g.Links.Key() != want.Links.Key() || g.CorrSet != want.CorrSet || g.Identifiable != want.Identifiable {
				t.Fatalf("shard %d subset %d: %+v != %+v", shard, i, g, want)
			}
			if math.Float64bits(g.GoodProb) != math.Float64bits(want.GoodProb) {
				t.Fatalf("shard %d subset %d: good prob %v != %v (bit-exact)", shard, i, g.GoodProb, want.GoodProb)
			}
			if math.IsNaN(want.GoodProb) {
				sawNaN = true
			}
		}
		if len(got.PathSets) != len(res.PathSets) {
			t.Fatalf("shard %d: %d path sets, want %d", shard, len(got.PathSets), len(res.PathSets))
		}
		for i := range res.PathSets {
			if got.PathSets[i].Key() != res.PathSets[i].Key() {
				t.Fatalf("shard %d path set %d differs", shard, i)
			}
		}
		if got.Rank != res.Rank || got.Nullity != res.Nullity || got.ClampedRows != res.ClampedRows {
			t.Fatalf("shard %d: rank/nullity/clamped (%d,%d,%d) != (%d,%d,%d)",
				shard, got.Rank, got.Nullity, got.ClampedRows, res.Rank, res.Nullity, res.ClampedRows)
		}
		_ = sawNaN // coverage varies by shard; the bit-exact check above is what matters
		origBlocks[shard] = res
		wireBlocks[shard] = got
	}

	// The decoded blocks must merge to the same estimate as the
	// originals: every link probability bit-identical.
	want := sv.Merge(origBlocks, rec)
	got := sv.Merge(wireBlocks, rec)
	for e := 0; e < top.NumLinks(); e++ {
		wp, wx := want.LinkCongestProb(e)
		gp, gx := got.LinkCongestProb(e)
		if math.Float64bits(wp) != math.Float64bits(gp) || wx != gx {
			t.Fatalf("link %d: merged estimate over wire blocks (%v,%v) != local (%v,%v)", e, gp, gx, wp, wx)
		}
	}
}

// TestShardResultJSONShape pins the top-level key set of the c1 result
// body, fully populated and zero, against
// testdata/result_shape.golden — the wire twin of the server's
// TestStatusJSONShape.
func TestShardResultJSONShape(t *testing.T) {
	info := estimator.SolveInfo{BuildTime: 1, RepairTime: 1, SolveTime: 1}
	info.Warm, info.Repaired, info.RepairedNumeric, info.RepairFailed = true, true, true, true
	full := encodeResult(1, 1, 1, core.NewShardResult(nil, nil, 1, 1, 1), info)
	var got strings.Builder
	for _, c := range []struct {
		name string
		body *ShardResultResponse
	}{{"ShardResultResponse populated", full}, {"ShardResultResponse zero", &ShardResultResponse{}}} {
		raw, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&got, "== %s\n%s\n", c.name, strings.Join(keys, "\n"))
	}
	want, err := os.ReadFile("testdata/result_shape.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("c1 result body shape changed; if intended, update testdata/result_shape.golden and MIGRATION.md.\ngot:\n%swant:\n%s", got.String(), want)
	}
}

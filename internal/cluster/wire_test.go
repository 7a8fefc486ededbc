package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
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

// randomWindow fills a run-sized window with seeded random congestion rows.
func randomWindow(top *topology.Topology, intervals int, seed int64) *stream.Window {
	rng := rand.New(rand.NewSource(seed))
	rec := stream.NewWindow(top.NumPaths(), intervals)
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

// A solved shard block must survive encode → bytes → decode with every
// field bit-identical, NaN good-probabilities included: merged cluster
// estimates are only exact if the wire is.
func TestResultWireRoundTrip(t *testing.T) {
	top := shardedTopology(t)
	sv, err := estimator.NewShardedSolver(top, testSolverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rec := randomWindow(top, 200, 7)
	origBlocks := make([]*core.Result, sv.NumShards())
	wireBlocks := make([]*core.Result, sv.NumShards())
	for shard := 0; shard < sv.NumShards(); shard++ {
		res, info, err := sv.SolveShard(context.Background(), shard, rec)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		raw := (&ShardResultResponse{
			Shard: shard, SeqHigh: 200, T: rec.T(), Tier: info.Tier,
			BuildNs: info.BuildTime.Nanoseconds(), RepairNs: info.RepairTime.Nanoseconds(), SolveNs: info.SolveTime.Nanoseconds(),
			Result: res,
		}).AppendTo(nil)
		over, err := ParseShardResult(raw, top)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if over.Shard != shard || over.SeqHigh != 200 || over.T != rec.T() {
			t.Fatalf("shard %d: header mangled: %+v", shard, over)
		}
		got := over.Result
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

// TestShardResultGolden pins the byte layout of the result block
// against testdata/result_c3.golden (a hex dump of a small fixed
// block): a change to it is a wire-version bump. The golden bytes also
// decode back to the same block, NaN good-probability included.
func TestShardResultGolden(t *testing.T) {
	links := make([]topology.Link, 8)
	paths := make([]topology.Path, 6)
	for i := range links {
		links[i] = topology.Link{ID: i, AS: -1}
	}
	for i := range paths {
		paths[i] = topology.Path{ID: i, Links: []int{i}}
	}
	top, err := topology.NewChecked(links, paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	block := &ShardResultResponse{
		Shard: 1, SeqHigh: 200, T: 150,
		Tier:    core.Tier{Warm: true, Repaired: true},
		BuildNs: 1, RepairNs: 2, SolveNs: 3,
		Result: core.NewShardResult([]core.SubsetResult{
			{Links: bitset.FromIndices(8, 1, 4), CorrSet: 2, GoodProb: 0.75, Identifiable: true},
			{Links: bitset.FromIndices(8, 5), CorrSet: 5, GoodProb: math.NaN()},
		}, []*bitset.Set{bitset.FromIndices(6, 0, 2), bitset.FromIndices(6, 5)}, 2, 1, 3),
	}
	raw := block.AppendTo(nil)
	want, err := os.ReadFile("testdata/result_c3.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.Dump(raw); got != string(want) {
		t.Fatalf("c3 result block layout changed; if intended, bump WireVersion, update testdata/result_c3.golden and MIGRATION.md.\ngot:\n%swant:\n%s", got, want)
	}
	back, err := ParseShardResult(raw, top)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.AppendTo(nil); !bytes.Equal(again, raw) {
		t.Fatalf("golden block re-encodes to\n%s", hex.Dump(again))
	}
	if g := back.Subsets[1].GoodProb; math.Float64bits(g) != math.Float64bits(math.NaN()) {
		t.Fatalf("NaN good-probability decoded as %v", g)
	}
}

// A fleet mixing c2 and c3 builds fails loudly: a c2 worker's JSON
// result at 200 is refused as wire_version and latches the worker
// unreachable, and a c2 coordinator's JSON ingest body is a 400 that
// applies nothing.
func TestMixedVersionRefused(t *testing.T) {
	top := shardedTopology(t)
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"wire_version":"c2","data":{"shard":0,"seq_high":1,"t":1,"subsets":[],"path_sets":[]}}` + "\n"))
	})
	c, err := NewCoordinator(CoordinatorConfig{
		Topology:   top,
		Workers:    []WorkerSpec{{Addr: "http://stub"}},
		WindowSize: 8,
		SolverOpts: testSolverOpts(),
		Logger:     discardLogger(),
		Retries:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.owner[0]
	h.client.hc = &http.Client{Transport: recorderTransport{stub}}
	h.state = stateHealthy
	if _, err := c.SolveShard(context.Background(), 0, nil); !errors.Is(err, server.ErrShardUnavailable) {
		t.Fatalf("c2 result: got %v, want ErrShardUnavailable", err)
	}
	if st := c.ClusterStatus().Workers[0]; st.State != stateUnreachable || !strings.Contains(st.LastError, CodeWireVersion) {
		t.Fatalf("after a c2 result the worker is %s (%q), want unreachable on %s", st.State, st.LastError, CodeWireVersion)
	}

	_, cl, stop := workerClient(t, top, wal.Options{})
	defer stop()
	if err := cl.do(context.Background(), http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 16), nil); err != nil {
		t.Fatal(err)
	}
	status, env := postStatus(t, cl, "/c1/ingest", []byte(`{"base_seq":0,"intervals":[[0,1],[2]]}`))
	if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
		t.Fatalf("c2 ingest body answered HTTP %d %+v, want 400 %s", status, env.Error, CodeBadRequest)
	}
	if seq := statusSeq(t, cl); seq != 0 {
		t.Fatalf("c2 ingest body moved the worker to seq %d", seq)
	}
}

// A block repeating the last decoded block's structure under new
// per-epoch fields decodes over that structure — the same link sets,
// path sets and subset index — and a block of any other structure is
// parsed in full. Either way the decode re-encodes to its body and
// merges bit-identically to ParseShardResult's.
func TestResultDecoderReusesStructure(t *testing.T) {
	top := shardedTopology(t)
	sv, err := estimator.NewShardedSolver(top, testSolverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rec := randomWindow(top, 200, 7)
	res, info, err := sv.SolveShard(context.Background(), 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(seq uint64, r *core.Result) []byte {
		return (&ShardResultResponse{SeqHigh: seq, T: rec.T(), Tier: info.Tier, SolveNs: int64(seq), Result: r}).AppendTo(nil)
	}
	// The same structure at a later epoch: new probabilities, flipped
	// identifiability, new counts.
	later := slices.Clone(res.Subsets)
	for i := range later {
		later[i].GoodProb = float64(i) / float64(len(later))
		later[i].Identifiable = !later[i].Identifiable
	}
	// Another structure: one path set fewer.
	other := core.NewShardResult(res.Subsets, res.PathSets[1:], res.Rank, res.Nullity, res.ClampedRows)

	d := NewResultDecoder(top)
	var prev *ShardResultResponse
	for i, step := range []struct {
		body  []byte
		reuse bool
	}{
		{encode(1, res), false},
		{encode(2, core.NewShardResult(later, res.PathSets, res.Rank+1, res.Nullity, res.ClampedRows+3)), true},
		{encode(3, res), true},
		{encode(4, other), false},
		{encode(5, other), true},
	} {
		got, err := d.Decode(step.body)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if again := got.AppendTo(nil); !bytes.Equal(again, step.body) {
			t.Fatalf("block %d re-encodes to other bytes", i)
		}
		if i > 0 {
			reused := got.Subsets[0].Links == prev.Subsets[0].Links && &got.PathSets[0] == &prev.PathSets[0]
			if reused != step.reuse {
				t.Fatalf("block %d: decoded over the last structure: %v, want %v", i, reused, step.reuse)
			}
		}
		want, err := ParseShardResult(step.body, top)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sv.Merge([]*core.Result{want.Result}, rec), sv.Merge([]*core.Result{got.Result}, rec)
		for e := range a.LinkProb {
			if math.Float64bits(a.LinkProb[e]) != math.Float64bits(b.LinkProb[e]) || a.LinkExact[e] != b.LinkExact[e] {
				t.Fatalf("block %d link %d: merged decode (%v,%v), parsed (%v,%v)", i, e, b.LinkProb[e], b.LinkExact[e], a.LinkProb[e], a.LinkExact[e])
			}
		}
		prev = got
	}
	// A refused block leaves the decoder on the last good one.
	bad := encode(6, res)
	bad[resultHeaderSize+4] = 2
	if _, err := d.Decode(bad); err == nil || !strings.Contains(err.Error(), "identifiable byte 2") {
		t.Fatalf("identifiable byte 2: err %v", err)
	}
	if got, err := d.Decode(encode(7, other)); err != nil || got.Subsets[0].Links != prev.Subsets[0].Links {
		t.Fatalf("after a refused block: err %v, structure reused %v", err, err == nil && got.Subsets[0].Links == prev.Subsets[0].Links)
	}
}

// An answer past the RPC body limit is refused, not cut to the limit.
func TestReadCappedRefusesOversize(t *testing.T) {
	const limit = 8
	for _, tc := range []struct {
		body string
		ok   bool
	}{{"", true}, {"12345678", true}, {"123456789", false}, {strings.Repeat("x", 100), false}} {
		got, err := readCapped(strings.NewReader(tc.body), limit)
		if tc.ok {
			if err != nil || string(got) != tc.body {
				t.Fatalf("%d-byte body: got %q, %v", len(tc.body), got, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "response exceeds 8 bytes") {
			t.Fatalf("%d-byte body over an %d-byte limit: got %d bytes, err %v", len(tc.body), limit, len(got), err)
		}
	}
}

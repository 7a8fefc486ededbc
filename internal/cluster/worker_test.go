package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/topology"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// workerClient pairs a live worker with a wire client against it.
func workerClient(t *testing.T, top *topology.Topology, walDir string) (*Worker, *client, func()) {
	t.Helper()
	wk := NewWorker(WorkerConfig{Topology: top, WALDir: walDir, Logger: discardLogger()})
	ts := httptest.NewServer(wk.Handler())
	return wk, &client{base: ts.URL, hc: ts.Client()}, func() {
		ts.Close()
		wk.Close()
	}
}

func testAssignRequest(top *topology.Topology, shards []int, window int) *AssignRequest {
	settings, err := estimator.Apply(testSolverOpts()...)
	if err != nil {
		panic(err)
	}
	return &AssignRequest{
		Fingerprint: Fingerprint(top),
		WorkerID:    "w0",
		Shards:      shards,
		WindowSize:  window,
		Solver:      settings,
	}
}

// wantCode asserts err is a *WireError with the given code.
func wantCode(t *testing.T, err error, code string) *WireError {
	t.Helper()
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want wire error %s", err, code)
	}
	if we.Code != code {
		t.Fatalf("got code %s (%s), want %s", we.Code, we.Message, code)
	}
	return we
}

// randomIntervals builds n wire intervals over the topology's paths.
func randomIntervals(top *topology.Topology, n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		var iv []int
		for p := 0; p < top.NumPaths(); p++ {
			if rng.Float64() < 0.15 {
				iv = append(iv, p)
			}
		}
		out[i] = iv
	}
	return out
}

func seqOf(t *testing.T, acks []ShardSeq, shard int) uint64 {
	t.Helper()
	for _, ss := range acks {
		if ss.Shard == shard {
			return ss.Seq
		}
	}
	t.Fatalf("no ack for shard %d in %+v", shard, acks)
	return 0
}

// solvedBlock strips what legitimately differs between two solves of
// the same data — stage timings and the plan tier (a recovered or
// differently fed solver may be cold where the other was warm) —
// leaving the solved block itself.
func solvedBlock(res ShardResultResponse) ShardResultResponse {
	res.BuildNs, res.RepairNs, res.SolveNs = 0, 0, 0
	res.Tier = core.Tier{}
	return res
}

// TestWorkerProtocol walks the wire contract end to end on one worker:
// assignment (fingerprint pinning, idempotent re-assign), broadcast
// ingest with retry dedupe and gap rejection, per-shard catch-up at
// mixed sequences, and reset.
func TestWorkerProtocol(t *testing.T) {
	top := shardedTopology(t)
	_, cl, stop := workerClient(t, top, "")
	defer stop()
	ctx := context.Background()

	// RPCs before assignment are refused.
	err := cl.do(ctx, http.MethodPost, "/c1/ingest", &IngestRequest{Intervals: [][]int{{0}}}, nil)
	wantCode(t, err, CodeNotAssigned)

	// A foreign fingerprint is refused.
	bad := testAssignRequest(top, []int{0, 1}, 64)
	bad.Fingerprint = Fingerprint(testTopology(t, 2))
	wantCode(t, cl.do(ctx, http.MethodPost, "/c1/assign", bad, nil), CodeTopologyMismatch)

	// Real assignment: both shards start at sequence 0.
	req := testAssignRequest(top, []int{0, 1}, 64)
	var asg AssignResponse
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", req, &asg); err != nil {
		t.Fatal(err)
	}
	if asg.WorkerID != "w0" || seqOf(t, asg.Shards, 0) != 0 || seqOf(t, asg.Shards, 1) != 0 {
		t.Fatalf("unexpected assign ack: %+v", asg)
	}
	// Identical re-assign is idempotent; a different one is refused.
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", req, &asg); err != nil {
		t.Fatal(err)
	}
	shrunk := testAssignRequest(top, []int{0}, 64)
	wantCode(t, cl.do(ctx, http.MethodPost, "/c1/assign", shrunk, nil), CodeAssignmentChanged)

	// Broadcast ingest advances every shard in lockstep; re-delivering
	// the same batch (a coordinator retry) is a no-op.
	batch := &IngestRequest{BaseSeq: 0, Intervals: randomIntervals(top, 3, 1)}
	var ack IngestResponse
	for i := 0; i < 2; i++ {
		if err := cl.do(ctx, http.MethodPost, "/c1/ingest", batch, &ack); err != nil {
			t.Fatal(err)
		}
		if seqOf(t, ack.Shards, 0) != 3 || seqOf(t, ack.Shards, 1) != 3 {
			t.Fatalf("delivery %d: acks %+v, want both at 3", i, ack.Shards)
		}
	}

	// A base past the shards means missed batches: refused with the
	// per-shard sequences, nothing applied.
	gap := &IngestRequest{BaseSeq: 5, Intervals: randomIntervals(top, 2, 2)}
	we := wantCode(t, cl.do(ctx, http.MethodPost, "/c1/ingest", gap, nil), CodeSeqGap)
	if seqOf(t, we.Shards, 0) != 3 || seqOf(t, we.Shards, 1) != 3 {
		t.Fatalf("gap report %+v, want both at 3", we.Shards)
	}

	// Per-shard catch-up moves one shard without touching the other.
	single := &IngestRequest{BaseSeq: 3, Intervals: randomIntervals(top, 2, 3)}
	if err := cl.do(ctx, http.MethodPost, "/c1/shards/0/ingest", single, &ack); err != nil {
		t.Fatal(err)
	}
	if seqOf(t, ack.Shards, 0) != 5 {
		t.Fatalf("shard 0 at %d after catch-up, want 5", seqOf(t, ack.Shards, 0))
	}
	var st WorkerStatusResponse
	if err := cl.do(ctx, http.MethodGet, "/c1/status", nil, &st); err != nil {
		t.Fatal(err)
	}
	if seqOf(t, st.Shards, 0) != 5 || seqOf(t, st.Shards, 1) != 3 {
		t.Fatalf("status %+v, want shard 0 at 5, shard 1 at 3", st.Shards)
	}

	// Broadcast at the lagging shard's base: the ahead shard dedupes
	// the overlap, the lagging one applies it — back in lockstep.
	mixed := &IngestRequest{BaseSeq: 3, Intervals: randomIntervals(top, 2, 3)}
	if err := cl.do(ctx, http.MethodPost, "/c1/ingest", mixed, &ack); err != nil {
		t.Fatal(err)
	}
	if seqOf(t, ack.Shards, 0) != 5 || seqOf(t, ack.Shards, 1) != 5 {
		t.Fatalf("acks %+v, want both at 5", ack.Shards)
	}

	// The catch-up rows were whole rows — other shards' paths included,
	// as the coordinator replays them from its one window — and the
	// worker masked them: shard 0's block equals that of a worker fed
	// the very same rows by broadcast only.
	_, bcl, bstop := workerClient(t, top, "")
	defer bstop()
	if err := bcl.do(ctx, http.MethodPost, "/c1/assign", req, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*IngestRequest{batch, mixed} {
		if err := bcl.do(ctx, http.MethodPost, "/c1/ingest", b, nil); err != nil {
			t.Fatal(err)
		}
	}
	var caught, broadcast ShardResultResponse
	if err := cl.do(ctx, http.MethodGet, "/c1/shards/0/result", nil, &caught); err != nil {
		t.Fatal(err)
	}
	if err := bcl.do(ctx, http.MethodGet, "/c1/shards/0/result", nil, &broadcast); err != nil {
		t.Fatal(err)
	}
	if caught.SeqHigh != 5 || len(caught.Subsets) == 0 {
		t.Fatalf("shard 0 block after catch-up: seq %d, %d subsets", caught.SeqHigh, len(caught.Subsets))
	}
	if got, want := solvedBlock(caught), solvedBlock(broadcast); !reflect.DeepEqual(got, want) {
		t.Fatalf("shard 0 caught up with unmasked rows differs from broadcast\n got %+v\nwant %+v", got, want)
	}

	// Results answer at the ring's sequence; unknown shards don't.
	var res ShardResultResponse
	if err := cl.do(ctx, http.MethodGet, "/c1/shards/1/result", nil, &res); err != nil {
		t.Fatal(err)
	}
	if res.Shard != 1 || res.SeqHigh != 5 {
		t.Fatalf("result shard %d seq %d, want 1/5", res.Shard, res.SeqHigh)
	}
	numShards := topology.NewPartition(top).NumShards()
	err = cl.do(ctx, http.MethodGet, fmt.Sprintf("/c1/shards/%d/result", numShards), nil, nil)
	wantCode(t, err, CodeUnknownShard)

	// Reset rewinds the shard to an empty ring at the requested base.
	var rst ResetResponse
	if err := cl.do(ctx, http.MethodPost, "/c1/shards/0/reset", &ResetRequest{Seq: 2}, &rst); err != nil {
		t.Fatal(err)
	}
	if rst.Shard != 0 || rst.Seq != 2 {
		t.Fatalf("reset ack %+v, want shard 0 at 2", rst)
	}
}

// Shards must never see rows outside their path mask: two shards fed
// the same broadcast row keep disjoint views, so a merged solve cannot
// double-count a path.
func TestWorkerMasksRows(t *testing.T) {
	top := shardedTopology(t)
	part := topology.NewPartition(top)
	wk, cl, stop := workerClient(t, top, "")
	defer stop()
	ctx := context.Background()
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 16), nil); err != nil {
		t.Fatal(err)
	}
	// One row congesting every path.
	all := make([]int, top.NumPaths())
	for p := range all {
		all[p] = p
	}
	if err := cl.do(ctx, http.MethodPost, "/c1/ingest", &IngestRequest{Intervals: [][]int{all}}, nil); err != nil {
		t.Fatal(err)
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	for _, k := range []int{0, 1} {
		row := wk.shards[k].ring.CongestedAt(0)
		want := part.ShardPaths(k)
		if row.Count() != want.Count() {
			t.Fatalf("shard %d row has %d paths, want its universe %d", k, row.Count(), want.Count())
		}
		masked := row.Clone()
		masked.IntersectWith(want)
		if masked.Count() != row.Count() {
			t.Fatalf("shard %d row leaks paths outside its universe", k)
		}
	}
}

// TestWorkerWALRecoveryTwoShards is the per-shard durability
// regression: a worker owning ≥ 2 shards writes one WAL per shard
// (shard-<k> subdirectories), and a restarted worker recovers every
// shard to its pre-crash sequence with bit-identical solve results.
func TestWorkerWALRecoveryTwoShards(t *testing.T) {
	top := shardedTopology(t)
	walDir := t.TempDir()
	const n = 30

	wk1, cl1, stop1 := workerClient(t, top, walDir)
	ctx := context.Background()
	if err := cl1.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), nil); err != nil {
		t.Fatal(err)
	}
	var ack IngestResponse
	if err := cl1.do(ctx, http.MethodPost, "/c1/ingest",
		&IngestRequest{BaseSeq: 0, Intervals: randomIntervals(top, n, 9)}, &ack); err != nil {
		t.Fatal(err)
	}
	before := map[int]*ShardResultResponse{}
	for _, k := range []int{0, 1} {
		var res ShardResultResponse
		if err := cl1.do(ctx, http.MethodGet, fmt.Sprintf("/c1/shards/%d/result", k), nil, &res); err != nil {
			t.Fatal(err)
		}
		before[k] = &res
	}
	stop1()
	_ = wk1

	for _, k := range []int{0, 1} {
		if _, err := os.Stat(filepath.Join(walDir, fmt.Sprintf("shard-%d", k))); err != nil {
			t.Fatalf("shard %d has no WAL directory: %v", k, err)
		}
	}

	// Restart: assignment must come back at the recovered sequences and
	// the shard blocks must be bit-identical to the pre-restart solves.
	_, cl2, stop2 := workerClient(t, top, walDir)
	defer stop2()
	var asg AssignResponse
	if err := cl2.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), &asg); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1} {
		if got := seqOf(t, asg.Shards, k); got != n {
			t.Fatalf("shard %d recovered to seq %d, want %d", k, got, n)
		}
		var res ShardResultResponse
		if err := cl2.do(ctx, http.MethodGet, fmt.Sprintf("/c1/shards/%d/result", k), nil, &res); err != nil {
			t.Fatal(err)
		}
		// A recovered solve is cold where the original may have been
		// warm; only the solved block itself must match.
		if got, want := solvedBlock(res), solvedBlock(*before[k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: recovered block differs from pre-restart block\n got %+v\nwant %+v", k, got, want)
		}
	}

	// Ingest continues at the recovered sequence, and the old overlap
	// still dedupes.
	if err := cl2.do(ctx, http.MethodPost, "/c1/ingest",
		&IngestRequest{BaseSeq: n, Intervals: randomIntervals(top, 5, 10)}, &ack); err != nil {
		t.Fatal(err)
	}
	if seqOf(t, ack.Shards, 0) != n+5 || seqOf(t, ack.Shards, 1) != n+5 {
		t.Fatalf("post-recovery acks %+v, want both at %d", ack.Shards, n+5)
	}
}

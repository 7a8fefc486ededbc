package cluster

import (
	"bytes"
	"context"
	"encoding/json"
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
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// workerClient pairs a live worker with a wire client against it.
func workerClient(t *testing.T, top *topology.Topology, opts wal.Options) (*Worker, *client, func()) {
	t.Helper()
	wk := NewWorker(WorkerConfig{Topology: top, WAL: opts, Logger: discardLogger()})
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

// randomIntervals builds n congested-path rows over the topology's
// paths.
func randomIntervals(top *topology.Topology, n int, seed int64) []*bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*bitset.Set, n)
	for i := range out {
		set := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if rng.Float64() < 0.15 {
				set.Add(p)
			}
		}
		out[i] = set
	}
	return out
}

// ingestBatch is one POST /c1/ingest: rows based at the sender's
// pre-batch sequence.
type ingestBatch struct {
	BaseSeq   uint64
	Intervals []*bitset.Set
}

// record is the batch's wire body, one WAL record.
func (b *ingestBatch) record() []byte { return wal.AppendRecord(nil, b.BaseSeq, b.Intervals) }

// ingest posts one batch and returns the worker's acked sequence.
func ingest(t *testing.T, cl *client, req *ingestBatch) uint64 {
	t.Helper()
	var ack IngestResponse
	if err := cl.do(context.Background(), http.MethodPost, "/c1/ingest", req.record(), &ack); err != nil {
		t.Fatal(err)
	}
	return ack.Seq
}

// statusSeq reads the worker's sequence from /c1/status.
func statusSeq(t *testing.T, cl *client) uint64 {
	t.Helper()
	var st WorkerStatusResponse
	if err := cl.do(context.Background(), http.MethodGet, "/c1/status", nil, &st); err != nil {
		t.Fatal(err)
	}
	return st.Seq
}

// shardResult fetches one shard's solved block over top's universes.
func shardResult(t *testing.T, top *topology.Topology, cl *client, shard int) ShardResultResponse {
	t.Helper()
	var body []byte
	if err := cl.do(context.Background(), http.MethodGet, fmt.Sprintf("/c1/shards/%d/result", shard), nil, &body); err != nil {
		t.Fatal(err)
	}
	res, err := ParseShardResult(body, top)
	if err != nil {
		t.Fatal(err)
	}
	return *res
}

// postStatus posts a raw body and returns the HTTP status with the
// decoded envelope.
func postStatus(t *testing.T, cl *client, path string, body []byte) (int, envelope) {
	t.Helper()
	resp, err := cl.hc.Post(cl.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("POST %s answered HTTP %d with no envelope: %v", path, resp.StatusCode, err)
	}
	return resp.StatusCode, env
}

// solvedBlock strips what legitimately differs between two solves of
// the same data — stage timings and the plan tier (a recovered or
// differently fed solver may be cold where the other was warm) —
// leaving the solved block itself, encoded: the bytes compare NaN
// good-probabilities bit for bit, where the decoded floats would not.
func solvedBlock(res ShardResultResponse) []byte {
	res.BuildNs, res.RepairNs, res.SolveNs = 0, 0, 0
	res.Tier = core.Tier{}
	return res.AppendTo(nil)
}

// TestWorkerProtocol walks the wire contract end to end on one worker:
// assignment (fingerprint pinning, idempotent re-assign), ingest with
// retry dedupe of an applied prefix and gap rejection, catch-up equal
// to broadcast, per-shard results and reset — all on the worker's one
// sequence.
func TestWorkerProtocol(t *testing.T) {
	top := shardedTopology(t)
	_, cl, stop := workerClient(t, top, wal.Options{})
	defer stop()
	ctx := context.Background()

	// RPCs before assignment are refused.
	err := cl.do(ctx, http.MethodPost, "/c1/ingest", (&ingestBatch{Intervals: []*bitset.Set{bitset.FromIndices(top.NumPaths(), 0)}}).record(), nil)
	wantCode(t, err, CodeNotAssigned)
	wantCode(t, cl.do(ctx, http.MethodPost, "/c1/reset", &ResetRequest{}, nil), CodeNotAssigned)

	// A foreign fingerprint is refused.
	bad := testAssignRequest(top, []int{0, 1}, 64)
	bad.Fingerprint = Fingerprint(testTopology(t, 2))
	wantCode(t, cl.do(ctx, http.MethodPost, "/c1/assign", bad, nil), CodeTopologyMismatch)

	// A window the worker could not allocate is refused before anything
	// is sized by it, as is one a coordinator could never send.
	for _, window := range []int{1 << 40, server.MaxWindowSize + 1} {
		wantCode(t, cl.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, window), nil), CodeBadRequest)
	}

	// Real assignment starts at sequence 0.
	req := testAssignRequest(top, []int{0, 1}, 64)
	var asg AssignResponse
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", req, &asg); err != nil {
		t.Fatal(err)
	}
	if asg.WorkerID != "w0" || asg.Seq != 0 {
		t.Fatalf("unexpected assign ack: %+v", asg)
	}
	// Identical re-assign is idempotent; a different one is refused.
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", req, &asg); err != nil {
		t.Fatal(err)
	}
	shrunk := testAssignRequest(top, []int{0}, 64)
	wantCode(t, cl.do(ctx, http.MethodPost, "/c1/assign", shrunk, nil), CodeAssignmentChanged)

	// Ingest advances the one sequence; re-delivering the same batch (a
	// coordinator retry) is a no-op.
	rows := randomIntervals(top, 5, 1)
	batch := &ingestBatch{BaseSeq: 0, Intervals: rows[:3]}
	for i := 0; i < 2; i++ {
		if got := ingest(t, cl, batch); got != 3 {
			t.Fatalf("delivery %d: ack %d, want 3", i, got)
		}
	}

	// A base past the worker means missed batches: refused with the
	// worker's sequence, nothing applied.
	gap := &ingestBatch{BaseSeq: 5, Intervals: randomIntervals(top, 2, 2)}
	we := wantCode(t, cl.do(ctx, http.MethodPost, "/c1/ingest", gap.record(), nil), CodeSeqGap)
	if we.Seq != 3 || statusSeq(t, cl) != 3 {
		t.Fatalf("gap report at %d, status %d, want both 3", we.Seq, statusSeq(t, cl))
	}

	// Catch-up is ordinary ingest from the coordinator's window: a replay
	// based below the worker dedupes the applied prefix and applies the
	// rest.
	catchUp := &ingestBatch{BaseSeq: 1, Intervals: rows[1:]}
	if got := ingest(t, cl, catchUp); got != 5 {
		t.Fatalf("ack %d after catch-up, want 5", got)
	}

	// Every shard's block equals that of a worker fed the same rows by
	// broadcast only.
	_, bcl, bstop := workerClient(t, top, wal.Options{})
	defer bstop()
	if err := bcl.do(ctx, http.MethodPost, "/c1/assign", req, nil); err != nil {
		t.Fatal(err)
	}
	ingest(t, bcl, batch)
	ingest(t, bcl, &ingestBatch{BaseSeq: 3, Intervals: rows[3:]})
	for _, k := range []int{0, 1} {
		caught, broadcast := shardResult(t, top, cl, k), shardResult(t, top, bcl, k)
		if caught.Shard != k || caught.SeqHigh != 5 || caught.T != 5 || len(caught.Subsets) == 0 {
			t.Fatalf("shard %d block after catch-up: shard %d seq %d T %d, %d subsets",
				k, caught.Shard, caught.SeqHigh, caught.T, len(caught.Subsets))
		}
		if got, want := solvedBlock(caught), solvedBlock(broadcast); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d caught up differs from broadcast\n got %+v\nwant %+v", k, got, want)
		}
	}

	// Unknown and malformed shards are refused.
	numShards := topology.NewPartition(top).NumShards()
	err = cl.do(ctx, http.MethodGet, fmt.Sprintf("/c1/shards/%d/result", numShards), nil, nil)
	wantCode(t, err, CodeUnknownShard)
	wantCode(t, cl.do(ctx, http.MethodGet, "/c1/shards/x/result", nil, nil), CodeBadRequest)

	// Reset rewinds the worker to an empty window at the requested base
	// and drops every shard's cached block.
	var rst ResetResponse
	if err := cl.do(ctx, http.MethodPost, "/c1/reset", &ResetRequest{Seq: 2}, &rst); err != nil {
		t.Fatal(err)
	}
	if rst.Seq != 2 || statusSeq(t, cl) != 2 {
		t.Fatalf("reset ack %+v, status %d, want both at 2", rst, statusSeq(t, cl))
	}
	if got := ingest(t, cl, &ingestBatch{BaseSeq: 2, Intervals: rows[:1]}); got != 3 {
		t.Fatalf("ack %d after reset, want 3", got)
	}
	for _, k := range []int{0, 1} {
		if res := shardResult(t, top, cl, k); res.SeqHigh != 3 || res.T != 1 {
			t.Fatalf("shard %d after reset: seq %d T %d, want 3/1", k, res.SeqHigh, res.T)
		}
	}
}

// A worker's window holds only its own shards' paths: workers owning
// different shards fed the same broadcast row keep disjoint views, so
// a merged solve cannot double-count a path.
func TestWorkerMasksRows(t *testing.T) {
	top := shardedTopology(t)
	part := topology.NewPartition(top)
	// One row congesting every path.
	all := bitset.New(top.NumPaths())
	for p := 0; p < top.NumPaths(); p++ {
		all.Add(p)
	}
	for _, shards := range [][]int{{0}, {1}, {0, 1}} {
		wk, cl, stop := workerClient(t, top, wal.Options{})
		if err := cl.do(context.Background(), http.MethodPost, "/c1/assign", testAssignRequest(top, shards, 16), nil); err != nil {
			t.Fatal(err)
		}
		ingest(t, cl, &ingestBatch{Intervals: []*bitset.Set{all}})
		want := bitset.New(top.NumPaths())
		for _, k := range shards {
			want.UnionWith(part.ShardPaths(k))
		}
		wk.mu.Lock()
		row := wk.win.CongestedAt(0)
		wk.mu.Unlock()
		if !row.Equal(want) {
			t.Fatalf("shards %v: row holds %d paths, want exactly their %d", shards, row.Count(), want.Count())
		}
		stop()
	}
}

// TestWorkerWALRecoveryTwoShards is the durability regression: a worker
// owning ≥ 2 shards writes one WAL at the root of its WAL directory,
// and a restarted worker recovers its one sequence with every shard's
// block bit-identical.
func TestWorkerWALRecoveryTwoShards(t *testing.T) {
	top := shardedTopology(t)
	walDir := t.TempDir()
	const n = 30

	_, cl1, stop1 := workerClient(t, top, wal.Options{Dir: walDir})
	ctx := context.Background()
	if err := cl1.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), nil); err != nil {
		t.Fatal(err)
	}
	first := &ingestBatch{BaseSeq: 0, Intervals: randomIntervals(top, n, 9)}
	ingest(t, cl1, first)
	before := map[int]ShardResultResponse{}
	for _, k := range []int{0, 1} {
		before[k] = shardResult(t, top, cl1, k)
	}
	stop1()

	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("WAL directory is empty")
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() != walShardsFile && !strings.HasSuffix(e.Name(), ".wal") {
			t.Fatalf("WAL directory holds %q; want only segments of one log at its root", e.Name())
		}
	}

	// Restart: assignment must come back at the recovered sequence and
	// the shard blocks must be bit-identical to the pre-restart solves.
	_, cl2, stop2 := workerClient(t, top, wal.Options{Dir: walDir})
	defer stop2()
	var asg AssignResponse
	if err := cl2.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), &asg); err != nil {
		t.Fatal(err)
	}
	if asg.Seq != n {
		t.Fatalf("recovered to seq %d, want %d", asg.Seq, n)
	}
	for _, k := range []int{0, 1} {
		// A recovered solve is cold where the original may have been
		// warm; only the solved block itself must match.
		if got, want := solvedBlock(shardResult(t, top, cl2, k)), solvedBlock(before[k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: recovered block differs from pre-restart block\n got %+v\nwant %+v", k, got, want)
		}
	}

	// Ingest continues at the recovered sequence, and the old batch
	// still dedupes.
	if got := ingest(t, cl2, &ingestBatch{BaseSeq: n, Intervals: randomIntervals(top, 5, 10)}); got != n+5 {
		t.Fatalf("post-recovery ack %d, want %d", got, n+5)
	}
	if got := ingest(t, cl2, first); got != n+5 {
		t.Fatalf("re-delivered batch moved the worker to %d, want %d", got, n+5)
	}
}

// A worker's log is bound to the shard set it was written under: rows
// are masked to the owned shards' paths before they are logged, so a
// worker restarted on the same WAL directory with another assignment
// (the fleet size changed, and with it k mod N placement) must not
// recover them. It starts empty at seq 0, and a full catch-up leaves
// every shard's block equal to a worker fed the rows by broadcast. A
// log with no record of its shard set is discarded the same way.
func TestWorkerWALReplacement(t *testing.T) {
	top := shardedTopology(t)
	ctx := context.Background()
	walDir := t.TempDir()
	rows := &ingestBatch{BaseSeq: 0, Intervals: randomIntervals(top, 30, 14)}

	_, cl, stop := workerClient(t, top, wal.Options{Dir: walDir})
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0}, 64), nil); err != nil {
		t.Fatal(err)
	}
	ingest(t, cl, rows)
	stop()

	_, bcl, bstop := workerClient(t, top, wal.Options{})
	defer bstop()
	if err := bcl.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), nil); err != nil {
		t.Fatal(err)
	}
	ingest(t, bcl, rows)

	for _, lost := range []string{"re-placed", "unrecorded"} {
		if lost == "unrecorded" {
			if err := os.Remove(filepath.Join(walDir, walShardsFile)); err != nil {
				t.Fatal(err)
			}
		}
		_, cl, stop := workerClient(t, top, wal.Options{Dir: walDir})
		var asg AssignResponse
		if err := cl.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), &asg); err != nil {
			t.Fatal(err)
		}
		if asg.Seq != 0 {
			t.Fatalf("%s: recovered seq %d from a log written under shards {0}, want 0", lost, asg.Seq)
		}
		if got := ingest(t, cl, rows); got != 30 {
			t.Fatalf("%s: catch-up ack %d, want 30", lost, got)
		}
		for _, k := range []int{0, 1} {
			if got, want := solvedBlock(shardResult(t, top, cl, k)), solvedBlock(shardResult(t, top, bcl, k)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shard %d after catch-up differs from broadcast\n got %+v\nwant %+v", lost, k, got, want)
			}
		}
		stop()
	}

	// The log now records {0,1}: the same assignment recovers it.
	_, cl, stop = workerClient(t, top, wal.Options{Dir: walDir})
	defer stop()
	var asg AssignResponse
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), &asg); err != nil {
		t.Fatal(err)
	}
	if asg.Seq != 30 {
		t.Fatalf("same assignment recovered seq %d, want 30", asg.Seq)
	}
}

// The worker's WAL honours the configured fsync policy: under
// SyncBatch a batch whose fsync fails is refused with wal_unavailable
// (503) and nothing applied, while the interval policy acknowledges the
// same batch and syncs in the background.
func TestWorkerWALFsyncPolicy(t *testing.T) {
	top := shardedTopology(t)
	body := (&ingestBatch{Intervals: randomIntervals(top, 4, 11)}).record()
	for _, c := range []struct {
		policy wal.SyncPolicy
		status int
	}{{wal.SyncPerBatch, http.StatusServiceUnavailable}, {wal.SyncInterval, http.StatusOK}} {
		ffs := faultfs.New(nil)
		_, cl, stop := workerClient(t, top, wal.Options{Dir: t.TempDir(), FS: ffs, Policy: c.policy})
		if err := cl.do(context.Background(), http.MethodPost, "/c1/assign", testAssignRequest(top, []int{0, 1}, 64), nil); err != nil {
			t.Fatal(err)
		}
		ffs.FailSync(faultfs.ErrInjectedSync)
		status, env := postStatus(t, cl, "/c1/ingest", body)
		if status != c.status {
			t.Fatalf("%v: first ingest answered HTTP %d (%+v), want %d", c.policy, status, env.Error, c.status)
		}
		wantSeq := uint64(4)
		if c.status != http.StatusOK {
			if env.Error == nil || env.Error.Code != CodeWALUnavailable {
				t.Fatalf("%v: error %+v, want %s", c.policy, env.Error, CodeWALUnavailable)
			}
			wantSeq = 0
		}
		if got := statusSeq(t, cl); got != wantSeq {
			t.Fatalf("%v: worker at seq %d, want %d", c.policy, got, wantSeq)
		}
		stop()
	}
}

// A failed log append is atomic across the worker's shards: the batch
// is refused with wal_unavailable and the one sequence stays put. The
// log latches until the worker restarts; after the fault clears and the
// worker recovers, a retry at the same base applies exactly once, and
// every shard's block equals that of a worker fed the rows by
// broadcast.
func TestWorkerWALAppendFailureAtomic(t *testing.T) {
	top := shardedTopology(t)
	ctx := context.Background()
	assign := testAssignRequest(top, []int{0, 1}, 64)
	ffs := faultfs.New(nil)
	opts := wal.Options{Dir: t.TempDir(), FS: ffs, Policy: wal.SyncOff}
	first := &ingestBatch{BaseSeq: 0, Intervals: randomIntervals(top, 5, 12)}
	second := &ingestBatch{BaseSeq: 5, Intervals: randomIntervals(top, 5, 13)}

	_, cl, stop := workerClient(t, top, opts)
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", assign, nil); err != nil {
		t.Fatal(err)
	}
	ingest(t, cl, first)
	ffs.LimitWrites(10) // the next record tears mid-frame
	for i := 0; i < 2; i++ {
		wantCode(t, cl.do(ctx, http.MethodPost, "/c1/ingest", second.record(), nil), CodeWALUnavailable)
		if got := statusSeq(t, cl); got != 5 {
			t.Fatalf("attempt %d: worker at seq %d after a failed append, want 5", i, got)
		}
	}
	for _, k := range []int{0, 1} {
		if res := shardResult(t, top, cl, k); res.SeqHigh != 5 {
			t.Fatalf("shard %d solved at seq %d after a failed append, want 5", k, res.SeqHigh)
		}
	}
	stop()

	ffs.UnlimitWrites()
	_, cl, stop = workerClient(t, top, opts)
	defer stop()
	var asg AssignResponse
	if err := cl.do(ctx, http.MethodPost, "/c1/assign", assign, &asg); err != nil {
		t.Fatal(err)
	}
	if asg.Seq != 5 {
		t.Fatalf("recovered at seq %d, want 5 (the torn record dropped)", asg.Seq)
	}
	for i := 0; i < 2; i++ {
		if got := ingest(t, cl, second); got != 10 {
			t.Fatalf("retry %d: ack %d, want 10", i, got)
		}
	}

	_, bcl, bstop := workerClient(t, top, wal.Options{})
	defer bstop()
	if err := bcl.do(ctx, http.MethodPost, "/c1/assign", assign, nil); err != nil {
		t.Fatal(err)
	}
	ingest(t, bcl, first)
	ingest(t, bcl, second)
	for _, k := range []int{0, 1} {
		if got, want := solvedBlock(shardResult(t, top, cl, k)), solvedBlock(shardResult(t, top, bcl, k)); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d after the retried batch differs from broadcast\n got %+v\nwant %+v", k, got, want)
		}
	}
}

package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// simulatedBatches renders a deterministic interval stream for a
// topology, one congested-path set per interval.
func simulatedBatches(t testing.TB, top *topology.Topology, intervals int) []*bitset.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*bitset.Set, intervals)
	for ti := 0; ti < intervals; ti++ {
		out[ti] = model.Interval(ti, rng).CongestedPaths
	}
	return out
}

// The unsharded epoch loop must keep (and reuse) its structural plan:
// a re-solve over an unchanged window warm-starts, and warm estimates
// stay bit-identical to the stateless registry estimator.
func TestUnshardedWarmEpochs(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 300, SolverOpts: solverOpts()})
	defer s.Close()
	stream := simulatedBatches(t, top, 400)
	s.Ingest(stream[:250])

	first := s.Recompute(nil)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Warm {
		t.Fatal("first epoch cannot be warm")
	}
	warm := s.Recompute(nil)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.Warm {
		t.Fatal("re-solve over the unchanged window did not warm-start")
	}
	// More ingest, another epoch; whatever path it took, the estimate
	// must equal the stateless registry estimator over the same frozen
	// window.
	s.Ingest(stream[250:])
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	registry, err := estimator.New(estimator.CorrelationComplete)
	if err != nil {
		t.Fatal(err)
	}
	want, err := registry.Estimate(context.Background(), top, snap.Window, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for e := range want.LinkProb {
		if got, exact := snap.Est.LinkCongestProb(e); got != want.LinkProb[e] || exact != want.LinkExact[e] {
			t.Fatalf("link %d: warm loop (%v,%v) != stateless (%v,%v)", e, got, exact, want.LinkProb[e], want.LinkExact[e])
		}
	}
}

// With EpochEvery set, a burst that crosses several stride boundaries
// must drain as one epoch per checkpoint — each bit-identical to the
// stateless solve over that checkpoint's window — plus a live epoch,
// all visible in the history ring and on /v1/epochs. Correlation-complete
// drains through the warm solver's batched path, any other estimator
// through one stateless solve per checkpoint.
func TestEpochCheckpointDrain(t *testing.T) {
	for _, algo := range []string{estimator.CorrelationComplete, estimator.Independence} {
		t.Run(algo, func(t *testing.T) { testEpochCheckpointDrain(t, algo) })
	}
}

func testEpochCheckpointDrain(t *testing.T, algo string) {
	const windowSize, epochEvery, total = 200, 60, 250
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize: windowSize,
		EpochEvery: epochEvery,
		Algo:       algo,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	stream := simulatedBatches(t, top, total)
	s.Ingest(stream)

	if pending, dropped := s.backlogStats(); pending != 4 || dropped != 0 {
		t.Fatalf("backlog = (%d,%d), want (4,0)", pending, dropped)
	}
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if snap.SeqHigh != total || snap.Epoch != 5 {
		t.Fatalf("latest = seq %d epoch %d, want seq %d epoch 5", snap.SeqHigh, snap.Epoch, total)
	}
	if pending, _ := s.backlogStats(); pending != 0 {
		t.Fatalf("backlog not drained: %d pending", pending)
	}
	history := s.History()
	if len(history) != 5 {
		t.Fatalf("history has %d epochs, want 5", len(history))
	}
	wantSeqs := []uint64{60, 120, 180, 240, 250}
	registry, err := estimator.New(algo)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range history {
		if h.Epoch != uint64(i+1) || h.SeqHigh != wantSeqs[i] {
			t.Fatalf("history[%d] = epoch %d seq %d, want epoch %d seq %d", i, h.Epoch, h.SeqHigh, i+1, wantSeqs[i])
		}
	}
	if algo != estimator.CorrelationComplete {
		// Each drained epoch equals the registry estimator over its
		// checkpoint's window: replay the prefix up to checkpoint k on a
		// fresh server, whose drain then ends on the live state and
		// returns that checkpoint's epoch.
		for k, seq := range wantSeqs[:4] {
			r := newServer(t, top, Config{WindowSize: windowSize, EpochEvery: epochEvery, Algo: algo, SolverOpts: solverOpts()})
			r.Ingest(stream[:seq])
			got := r.Recompute(nil)
			r.Close()
			if got.Err != nil {
				t.Fatal(got.Err)
			}
			if got.SeqHigh != seq || got.Epoch != uint64(k+1) {
				t.Fatalf("drained checkpoint = seq %d epoch %d, want seq %d epoch %d", got.SeqHigh, got.Epoch, seq, k+1)
			}
			want, err := registry.Estimate(context.Background(), top, got.Window, solverOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			for e := range want.LinkProb {
				if p, exact := got.Est.LinkCongestProb(e); p != want.LinkProb[e] || exact != want.LinkExact[e] {
					t.Fatalf("checkpoint %d link %d: drained (%v,%v) != registry (%v,%v)", seq, e, p, exact, want.LinkProb[e], want.LinkExact[e])
				}
			}
		}
		checkEpochsEndpoint(t, s, total)
		return
	}
	// Re-derive checkpoint 3 (seq 180, window [0,180) truncated to 200
	// cap — all 180 intervals) offline and compare against a replayed
	// drain on a fresh server, asserting determinism of the batch path.
	s2 := newServer(t, top, Config{WindowSize: windowSize, SolverOpts: solverOpts()})
	defer s2.Close()
	s2.Ingest(stream[:180])
	ref := s2.Recompute(nil)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	want, err := registry.Estimate(context.Background(), top, ref.Window, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for e := range want.LinkProb {
		if got, _ := ref.Est.LinkCongestProb(e); got != want.LinkProb[e] {
			t.Fatalf("checkpoint replay link %d: %v != %v", e, got, want.LinkProb[e])
		}
	}

	checkEpochsEndpoint(t, s, total)
}

// checkEpochsEndpoint checks /v1/epochs serves the ring (and honors
// limit) after a drain of four checkpoints plus a live epoch at total.
func checkEpochsEndpoint(t *testing.T, s *Server, total uint64) {
	t.Helper()
	handler := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/epochs?limit=3", nil)
	rw := httptest.NewRecorder()
	handler.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("GET /v1/epochs: %d", rw.Code)
	}
	var env struct {
		Data EpochsResponse `json:"data"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Data.Epochs) != 3 {
		t.Fatalf("limit=3 returned %d epochs", len(env.Data.Epochs))
	}
	if env.Data.Epochs[2].Epoch != 5 || env.Data.Epochs[2].SeqHigh != total {
		t.Fatalf("newest epoch = %+v, want epoch 5 seq %d", env.Data.Epochs[2], total)
	}
}

// Past MaxEpochBacklog the oldest checkpoints are dropped and counted;
// the drain then covers only the surviving ones.
func TestEpochBacklogBound(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize:      200,
		EpochEvery:      10,
		MaxEpochBacklog: 3,
		SolverOpts:      solverOpts(),
	})
	defer s.Close()
	s.Ingest(simulatedBatches(t, top, 100))
	if pending, dropped := s.backlogStats(); pending != 3 || dropped != 7 {
		t.Fatalf("backlog = (%d,%d), want (3,7)", pending, dropped)
	}
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	// The surviving checkpoints (80, 90, 100) publish; the newest one
	// is the live state, so no extra live epoch follows.
	history := s.History()
	if len(history) != 3 {
		t.Fatalf("history has %d epochs, want 3", len(history))
	}
	if got := history[len(history)-1].SeqHigh; got != 100 {
		t.Fatalf("newest epoch seq %d, want 100", got)
	}
	if snap.SeqHigh != 100 {
		t.Fatalf("latest snapshot seq %d, want 100", snap.SeqHigh)
	}
}

// With EpochEvery set in sharded mode, a burst that crosses several
// stride boundaries must drain as one merged epoch per checkpoint —
// every shard's queued rings solved through the backend's batched
// multi-RHS path — plus a live epoch, with the per-shard epoch_backlog
// gauges tracking the queue.
func TestShardedEpochCheckpointDrain(t *testing.T) {
	const windowSize, epochEvery, total = 200, 60, 250
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize: windowSize,
		EpochEvery: epochEvery,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	stream := simulatedBatches(t, top, total)
	s.Ingest(stream)

	if pending, dropped := s.backlogStats(); pending != 4 || dropped != 0 {
		t.Fatalf("backlog = (%d,%d), want (4,0)", pending, dropped)
	}
	for _, info := range s.shardStatuses() {
		if info.EpochBacklog != 4 {
			t.Fatalf("shard %d epoch_backlog = %d, want 4", info.Shard, info.EpochBacklog)
		}
	}
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if snap.SeqHigh != total || snap.Epoch != 5 {
		t.Fatalf("latest = seq %d epoch %d, want seq %d epoch 5", snap.SeqHigh, snap.Epoch, total)
	}
	if pending, _ := s.backlogStats(); pending != 0 {
		t.Fatalf("backlog not drained: %d pending", pending)
	}
	for _, info := range s.shardStatuses() {
		if info.EpochBacklog != 0 {
			t.Fatalf("shard %d epoch_backlog = %d after drain, want 0", info.Shard, info.EpochBacklog)
		}
		if info.Epoch == 0 || info.SeqHigh != total {
			t.Fatalf("shard %d published epoch %d seq %d, want seq %d", info.Shard, info.Epoch, info.SeqHigh, total)
		}
	}
	history := s.History()
	if len(history) != 5 {
		t.Fatalf("history has %d epochs, want 5", len(history))
	}
	wantSeqs := []uint64{60, 120, 180, 240, 250}
	for i, h := range history {
		if h.Epoch != uint64(i+1) || h.SeqHigh != wantSeqs[i] {
			t.Fatalf("history[%d] = epoch %d seq %d, want epoch %d seq %d", i, h.Epoch, h.SeqHigh, i+1, wantSeqs[i])
		}
	}

	// A drained checkpoint must be bit-identical to a plain sharded
	// epoch over the same prefix: replay 180 intervals through a fresh
	// sharded server with checkpoints (the newest checkpoint is then
	// the live state, so the drain publishes the final epoch itself)
	// and compare against one without.
	s2 := newServer(t, top, Config{
		WindowSize: windowSize,
		EpochEvery: epochEvery,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
	})
	defer s2.Close()
	s2.Ingest(stream[:180])
	got := s2.Recompute(nil)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.SeqHigh != 180 || got.Epoch != 3 {
		t.Fatalf("drained prefix = seq %d epoch %d, want seq 180 epoch 3", got.SeqHigh, got.Epoch)
	}
	s3 := newServer(t, top, Config{
		WindowSize: windowSize,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
	})
	defer s3.Close()
	s3.Ingest(stream[:180])
	want := s3.Recompute(nil)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	for e := 0; e < top.NumLinks(); e++ {
		wp, wx := want.Est.LinkCongestProb(e)
		gp, gx := got.Est.LinkCongestProb(e)
		if gp != wp || gx != wx {
			t.Fatalf("link %d: drained checkpoint (%v,%v) != plain sharded epoch (%v,%v)", e, gp, gx, wp, wx)
		}
	}
}

// A cancelled sharded drain must requeue its checkpoints (bounded),
// publish nothing, and consume no epoch; the retry drains them.
func TestShardedEpochBacklogCancelRequeues(t *testing.T) {
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 200,
		EpochEvery: 60,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	s.Ingest(simulatedBatches(t, top, 250))
	if pending, _ := s.backlogStats(); pending != 4 {
		t.Fatalf("backlog = %d, want 4", pending)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := s.Recompute(ctx)
	if snap == nil || snap.Err == nil {
		t.Fatal("cancelled drain returned no error snapshot")
	}
	if snap.Epoch != 0 {
		t.Fatalf("cancelled drain consumed epoch %d", snap.Epoch)
	}
	if s.Latest() != nil {
		t.Fatal("cancelled drain published a snapshot")
	}
	if pending, dropped := s.backlogStats(); pending != 4 || dropped != 0 {
		t.Fatalf("backlog after cancel = (%d,%d), want (4,0)", pending, dropped)
	}
	if snap := s.Recompute(nil); snap.Err != nil || snap.Epoch != 5 {
		t.Fatalf("retry = epoch %d (err %v), want 5", snap.Epoch, snap.Err)
	}
}

// A cancelled backlog drain must requeue its checkpoints (bounded),
// publish nothing, and consume no epoch; the next tick drains them.
func TestEpochBacklogCancelRequeues(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 200,
		EpochEvery: 60,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	s.Ingest(simulatedBatches(t, top, 250))
	if pending, _ := s.backlogStats(); pending != 4 {
		t.Fatalf("backlog = %d, want 4", pending)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := s.Recompute(ctx)
	if snap == nil || snap.Err == nil {
		t.Fatal("cancelled drain returned no error snapshot")
	}
	if snap.Epoch != 0 {
		t.Fatalf("cancelled drain consumed epoch %d", snap.Epoch)
	}
	if s.Latest() != nil {
		t.Fatal("cancelled drain published a snapshot")
	}
	if pending, dropped := s.backlogStats(); pending != 4 || dropped != 0 {
		t.Fatalf("backlog after cancel = (%d,%d), want (4,0)", pending, dropped)
	}
	// The retry drains normally: 4 checkpoint epochs + 1 live.
	if snap := s.Recompute(nil); snap.Err != nil || snap.Epoch != 5 {
		t.Fatalf("retry = epoch %d (err %v), want 5", snap.Epoch, snap.Err)
	}
}

// A sharded checkpoint drain that runs after the shard loops have
// already published the live window must not roll Latest() back in
// ingest sequence: the drained epochs consume their epochs and enter the
// history, and the live snapshot stays the latest.
func TestShardedDrainKeepsLatestSeq(t *testing.T) {
	const total = 250
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 200,
		EpochEvery: 60,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	s.Ingest(simulatedBatches(t, top, total))
	ctx := context.Background()
	for sid := 0; sid < s.NumShards(); sid++ {
		s.solveShard(ctx, sid)
	}
	if got := s.Latest(); got == nil || got.Epoch != 1 || got.SeqHigh != total {
		t.Fatal("the shard loops did not publish epoch 1 at the live sequence")
	}
	if _, err := s.drainBacklog(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Latest(); got.SeqHigh != total {
		t.Fatalf("drain rolled Latest() back to epoch %d seq %d, want seq %d", got.Epoch, got.SeqHigh, total)
	}
	history := s.History()
	if len(history) != 5 {
		t.Fatalf("history has %d epochs, want 5", len(history))
	}
	for i, seq := range []uint64{60, 120, 180, 240} {
		if h := history[i+1]; h.Epoch != uint64(i+2) || h.SeqHigh != seq {
			t.Fatalf("history[%d] = epoch %d seq %d, want epoch %d seq %d", i+1, h.Epoch, h.SeqHigh, i+2, seq)
		}
	}
}

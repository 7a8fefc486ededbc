package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
)

// hookedBackend is the in-process sharded backend recording when each
// shard's solves start; failFirst fails shard 0's first solve. It is a
// Cluster that forwards batches nowhere and has no fleet, so its server
// runs a coordinator's kick-driven shard loops.
type hookedBackend struct {
	*localBackend
	noFleet
	failFirst bool

	mu     sync.Mutex
	starts map[int][]time.Time
}

func newHookedBackend(t testing.TB, top *topology.Topology) *hookedBackend {
	t.Helper()
	sv, err := estimator.NewShardedSolver(top, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return &hookedBackend{localBackend: &localBackend{sv: sv}, starts: map[int][]time.Time{}}
}

func (b *hookedBackend) SolveShard(ctx context.Context, shard int, win *stream.Window) (ShardSolve, error) {
	b.mu.Lock()
	b.starts[shard] = append(b.starts[shard], time.Now())
	fail := b.failFirst && shard == 0 && len(b.starts[0]) == 1
	b.mu.Unlock()
	if fail {
		return ShardSolve{}, fmt.Errorf("%w: shard 0 fails its first solve", ErrShardUnavailable)
	}
	return b.localBackend.SolveShard(ctx, shard, win)
}

func (b *hookedBackend) Forward(uint64, []*bitset.Set) error { return nil }

// solveStarts returns when shard's solves started, oldest first.
func (b *hookedBackend) solveStarts(shard int) []time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Time(nil), b.starts[shard]...)
}

// hookedConfig is a sharded configuration solving through b.
func hookedConfig(b *hookedBackend, every time.Duration) Config {
	return Config{
		WindowSize:     200,
		RecomputeEvery: every,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     solverOpts(),
		Backend:        b,
	}
}

// waitPublished waits until the published snapshot, and every shard
// block merged into it, stands at seq. The done channel is a liveness
// guard far above any solve in these tests, not a latency bound.
func waitPublished(t *testing.T, s *Server, seq uint64) *Snapshot {
	t.Helper()
	done := time.After(30 * time.Second)
	for {
		if snap := s.Latest(); snap != nil && snap.SeqHigh == seq {
			caught := true
			for _, sh := range snap.Shards {
				caught = caught && sh.SeqHigh == seq
			}
			if caught {
				return snap
			}
		}
		select {
		case <-done:
			got := "nothing"
			if snap := s.Latest(); snap != nil {
				got = fmt.Sprintf("seq %d", snap.SeqHigh)
			}
			t.Fatalf("no snapshot at seq %d was published (latest: %s)", seq, got)
		case <-time.After(time.Millisecond):
		}
	}
}

// A cluster's shard loops have no tick to wait for: with an hour
// between solve starts, a committed batch is still published at once,
// since each loop's first solve starts on a wake-up rather than on a
// tick an hour after Start. An in-process sharded server keeps its one
// ticking loop.
func TestShardLoopsWakeOnIngest(t *testing.T) {
	top := shardedTestTopology(t)
	local := newServer(t, top, Config{
		WindowSize:     200,
		RecomputeEvery: time.Hour,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     solverOpts(),
	})
	local.Close()
	if local.kicks != nil {
		t.Fatal("an in-process sharded server is kick-driven, want its one loop on its tick")
	}

	s := newServer(t, top, hookedConfig(newHookedBackend(t, top), time.Hour))
	defer s.Close()
	seq, err := s.Ingest(simulatedBatches(t, top, 50))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if snap := waitPublished(t, s, seq); snap.Err != nil {
		t.Fatal(snap.Err)
	}
}

// RecomputeEvery spaces a loop's solve starts. Two batches acknowledged
// back to back over HTTP, right after the loops' first solves, are
// solved no sooner than one and two gaps after Start: the shard's k-th
// solve starts at least k−1 gaps after Start, which bounds every start
// from below without timing any one solve.
func TestShardLoopSpacing(t *testing.T) {
	const every = 50 * time.Millisecond
	top := shardedTestTopology(t)
	b := newHookedBackend(t, top)
	s := newServer(t, top, hookedConfig(b, every))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := time.Now()
	s.Start()
	waitPublished(t, s, 0) // every loop's first solve, woken by Start
	rows := simStream(t, top, 20, 3)
	for _, batch := range [][][]int{rows[:10], rows[10:]} {
		if code, env := postObservations(t, ts.Client(), ts.URL, batch); code != 200 {
			t.Fatalf("ingest answered %d: %+v", code, env.Error)
		}
	}
	waitPublished(t, s, 20)

	starts := b.solveStarts(0)
	if len(starts) < 2 {
		t.Fatalf("shard 0 solved %d times, want ≥ 2", len(starts))
	}
	for k, at := range starts {
		if floor := time.Duration(k) * every; at.Sub(started) < floor {
			t.Fatalf("shard 0 solve %d started %v after Start, want ≥ %v", k+1, at.Sub(started), floor)
		}
	}
}

// A failed shard solve wakes its own loop again, so the shard is
// retried and the merged snapshot reaches the live sequence without a
// further batch.
func TestShardLoopRetriesFailedSolve(t *testing.T) {
	top := shardedTestTopology(t)
	b := newHookedBackend(t, top)
	b.failFirst = true
	s := newServer(t, top, hookedConfig(b, 5*time.Millisecond))
	defer s.Close()
	seq, err := s.Ingest(simulatedBatches(t, top, 50))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if snap := waitPublished(t, s, seq); snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if n := len(b.solveStarts(0)); n < 2 {
		t.Fatalf("shard 0 solved %d times, want its failed solve retried", n)
	}
}

// A kick-driven server reopened from its WAL publishes the recovered
// window with no new batch: Start wakes every loop once.
func TestShardedReopenPublishesRecoveredWindow(t *testing.T) {
	top := shardedTestTopology(t)
	cfg := hookedConfig(newHookedBackend(t, top), time.Hour)
	cfg.WAL = wal.Options{Dir: t.TempDir(), Policy: wal.SyncPerBatch}
	s := newServer(t, top, cfg)
	seq, err := s.Ingest(simulatedBatches(t, top, 80))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = newServer(t, top, cfg)
	defer s.Close()
	if got := s.Seq(); got != seq {
		t.Fatalf("reopened at seq %d, want %d", got, seq)
	}
	s.Start()
	if snap := waitPublished(t, s, seq); snap.Err != nil || snap.T != 80 {
		t.Fatalf("first snapshot: T %d, err %v; want T 80", snap.T, snap.Err)
	}
}

// parkingOneBlock is the one-block backend whose first solve parks
// until its context is cancelled, reporting the window it parked on;
// later solves run normally, and the context of the second is kept.
type parkingOneBlock struct {
	*oneBlockBackend
	parked chan uint64

	mu        sync.Mutex
	calls     int
	parkedErr error
	secondCtx context.Context
	secondSeq uint64
}

func (b *parkingOneBlock) SolveShard(ctx context.Context, shard int, win *stream.Window) (ShardSolve, error) {
	b.mu.Lock()
	b.calls++
	call := b.calls
	if call == 2 {
		b.secondCtx, b.secondSeq = ctx, win.Seq()
	}
	b.mu.Unlock()
	if call == 1 {
		b.parked <- win.Seq()
		<-ctx.Done()
		b.mu.Lock()
		b.parkedErr = ctx.Err()
		b.mu.Unlock()
		return ShardSolve{}, ctx.Err()
	}
	return b.oneBlockBackend.SolveShard(ctx, shard, win)
}

// The one-block loop's supersession: a solve still running once ingest
// has moved a whole window past its base is cancelled and publishes
// nothing, and the next solve runs unsupervised — under the lifetime
// context itself — and publishes the live sequence.
func TestSupersededSolveIsCancelled(t *testing.T) {
	const window = 40
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize:     window,
		RecomputeEvery: 5 * time.Millisecond,
		SolverOpts:     solverOpts(),
	})
	defer s.Close()
	b := &parkingOneBlock{oneBlockBackend: s.backend.(*oneBlockBackend), parked: make(chan uint64, 1)}
	s.backend = b
	batches := simulatedBatches(t, top, 2*window)
	if _, err := s.Ingest(batches[:window]); err != nil {
		t.Fatal(err)
	}
	s.Start()
	base := recvSoon(t, "the parked solve", b.parked)
	if base != window {
		t.Fatalf("solve parked at seq %d, want %d", base, window)
	}
	live, err := s.Ingest(batches[window:])
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitPublished(t, s, live); snap.Err != nil {
		t.Fatal(snap.Err)
	}

	b.mu.Lock()
	parkedErr, secondCtx, secondSeq := b.parkedErr, b.secondCtx, b.secondSeq
	b.mu.Unlock()
	if parkedErr == nil {
		t.Fatal("the parked solve was never cancelled")
	}
	if secondCtx == nil || secondSeq != live {
		t.Fatalf("second solve at seq %d, want seq %d", secondSeq, live)
	}
	if secondCtx != s.baseCtx {
		t.Fatal("the solve after a supersession ran supervised, want the lifetime context")
	}
	for _, h := range s.History() {
		if h.SeqHigh == base {
			t.Fatalf("epoch %d published at the superseded base %d", h.Epoch, base)
		}
	}
}

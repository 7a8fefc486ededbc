package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
)

// parkingForwarder is the in-process shard backend plus a cluster
// fan-out that parks: every Forward reports its base sequence on
// entered and returns only once release yields (or is closed).
type parkingForwarder struct {
	*localBackend
	noFleet
	entered chan uint64
	release chan struct{}
}

func (b *parkingForwarder) Forward(baseSeq uint64, _ []*bitset.Set) error {
	b.entered <- baseSeq
	<-b.release
	return nil
}

// promptly fails the test when fn has not returned within a bound far
// above anything but a lock held across the parked fan-out.
func promptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s is stuck behind an ingest parked in its fan-out", what)
	}
}

// recvSoon receives from ch under the same bound.
func recvSoon[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never arrived", what)
		panic("unreachable")
	}
}

// The window lock is never held across the cluster fan-out: while one
// Ingest is parked in Forward, everything that only needs the window —
// Seq, /v1/status, a whole synchronous epoch — proceeds, and a second
// Ingest still queues behind the first, so base sequences stay
// consecutive.
func TestIngestFanOutHoldsNoWindowLock(t *testing.T) {
	const perBatch = 12
	top := shardedTestTopology(t)
	sv, err := estimator.NewShardedSolver(top, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	fw := &parkingForwarder{
		localBackend: &localBackend{sv: sv},
		entered:      make(chan uint64, 2), // one slot per Ingest below: a Forward never blocks here, so an overtaker shows its base
		release:      make(chan struct{}),
	}
	s := newServer(t, top, Config{
		WindowSize: 100,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
		Backend:    fw,
	})
	defer s.Close()
	defer close(fw.release) // on a failure, let every parked Forward go

	batch := make([]*bitset.Set, perBatch)
	for i := range batch {
		batch[i] = bitset.FromIndices(top.NumPaths(), i%top.NumPaths())
	}
	type ingested struct {
		seq uint64
		err error
	}
	ingest := func() chan ingested {
		out := make(chan ingested, 1)
		go func() {
			seq, err := s.Ingest(batch)
			out <- ingested{seq, err}
		}()
		return out
	}
	first := ingest()
	if base := recvSoon(t, "first fan-out", fw.entered); base != 0 {
		t.Fatalf("first fan-out base = %d, want 0", base)
	}

	// The first ingest is parked inside Forward and stays there.
	promptly(t, "Seq", func() {
		if got := s.Seq(); got != 0 {
			t.Errorf("Seq = %d while the first batch is still in its fan-out, want 0", got)
		}
	})
	promptly(t, "GET /v1/status", func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("/v1/status = %d: %s", rec.Code, rec.Body)
		}
	})
	promptly(t, "Recompute", func() {
		if snap := s.Recompute(context.Background()); snap.Err != nil || snap.SeqHigh != 0 {
			t.Errorf("Recompute = seq %d, err %v; want the empty window's epoch", snap.SeqHigh, snap.Err)
		}
	})

	// A second ingest must wait its turn: it may not read its base — let
	// alone reach the workers — before the first has been applied.
	second := ingest()
	fw.release <- struct{}{}
	if got := recvSoon(t, "first ingest", first); got != (ingested{perBatch, nil}) {
		t.Fatalf("first ingest = %+v, want seq %d", got, perBatch)
	}
	if base := recvSoon(t, "second fan-out", fw.entered); base != perBatch {
		t.Fatalf("second fan-out base = %d, want %d: it overtook the first batch", base, perBatch)
	}
	fw.release <- struct{}{}
	if got := recvSoon(t, "second ingest", second); got != (ingested{2 * perBatch, nil}) {
		t.Fatalf("second ingest = %+v, want seq %d", got, 2*perBatch)
	}
	if got := s.Seq(); got != 2*perBatch {
		t.Fatalf("Seq = %d after two batches of %d", got, perBatch)
	}
}

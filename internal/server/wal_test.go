package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// postObservations POSTs one ingest batch (slices of congested path
// IDs) and returns the HTTP status and decoded envelope.
func postObservations(t testing.TB, client *http.Client, base string, paths [][]int) (int, Envelope) {
	t.Helper()
	req := ObservationsRequest{Intervals: make([]IntervalObs, len(paths))}
	for i, p := range paths {
		req.Intervals[i] = IntervalObs{CongestedPaths: p}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("POST /v1/observations: decoding envelope: %v", err)
	}
	return resp.StatusCode, env
}

// simStream renders the deterministic simulated observation stream as
// congested-path index slices, one per interval.
func simStream(t testing.TB, top *topology.Topology, intervals int, seed int64) [][]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, intervals)
	for ti := range out {
		out[ti] = model.Interval(ti, rng).CongestedPaths.Indices()
	}
	return out
}

// TestWALRecoveryRestoresWindow is the in-process recovery property:
// a restart on the same WAL dir rebuilds the exact sliding window —
// the recovered server's epoch solve is bit-identical to the one the
// crashed server would have published.
func TestWALRecoveryRestoresWindow(t *testing.T) {
	for _, algo := range []string{estimator.CorrelationComplete, estimator.CorrelationCompleteSharded} {
		t.Run(algo, func(t *testing.T) {
			top := testTopology(t)
			cfg := Config{
				WindowSize: 300,
				Algo:       algo,
				SolverOpts: solverOpts(),
				WAL:        wal.Options{Dir: t.TempDir(), Policy: wal.SyncOff},
			}
			a := newServer(t, top, cfg)
			ingestSimulated(t, a, top, 450) // wraps the ring
			snapA := a.Recompute(nil)
			if snapA.Err != nil {
				t.Fatal(snapA.Err)
			}
			a.Close()

			b := newServer(t, top, cfg)
			defer b.Close()
			if b.Seq() != 450 {
				t.Fatalf("recovered seq %d, want 450", b.Seq())
			}
			if _, rec, ok := b.WALStats(); !ok || rec.Records == 0 {
				t.Fatalf("recovery stats missing: ok=%v rec=%+v", ok, rec)
			}
			snapB := b.Recompute(nil)
			if snapB.Err != nil {
				t.Fatal(snapB.Err)
			}
			if snapB.T != snapA.T || snapB.SeqHigh != snapA.SeqHigh {
				t.Fatalf("window shape differs: T %d/%d seq %d/%d", snapA.T, snapB.T, snapA.SeqHigh, snapB.SeqHigh)
			}
			for e := 0; e < top.NumLinks(); e++ {
				pa, xa := snapA.Est.LinkCongestProb(e)
				pb, xb := snapB.Est.LinkCongestProb(e)
				if pa != pb || xa != xb {
					t.Fatalf("link %d: pre-crash (%v,%v) != recovered (%v,%v)", e, pa, xa, pb, xb)
				}
			}
		})
	}
}

// A WAL that cannot persist (failed fsync here) must turn ingest into
// 503 + Retry-After with a machine-readable code, mark the service
// degraded on /v1/status, and never apply the unlogged batch.
func TestIngestWALUnavailable(t *testing.T) {
	top := testTopology(t)
	ffs := faultfs.New(nil)
	s := newServer(t, top, Config{
		WindowSize: 100,
		SolverOpts: solverOpts(),
		WAL:        wal.Options{Dir: t.TempDir(), FS: ffs, Policy: wal.SyncPerBatch},
	})
	defer s.Close()
	h := s.Handler()

	body := `{"intervals":[{"congested_paths":[0]}]}`
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body)))
	if rw.Code != http.StatusOK {
		t.Fatalf("healthy ingest returned %d: %s", rw.Code, rw.Body)
	}

	ffs.FailSync(faultfs.ErrInjectedSync)
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body)))
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with failing WAL returned %d: %s", rw.Code, rw.Body)
	}
	if got := rw.Header().Get("Retry-After"); got == "" {
		t.Fatal("503 without Retry-After")
	}
	var env Envelope
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != CodeWALUnavailable {
		t.Fatalf("error envelope %+v, want code %q", env.Error, CodeWALUnavailable)
	}
	if s.Seq() != 1 {
		t.Fatalf("unlogged batch applied: seq %d, want 1", s.Seq())
	}

	// The failure latches and the service reports itself degraded.
	code, env, _ := get(t, h, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	var st StatusResponse
	decodeData(t, env, &st)
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("status not degraded: %+v", st)
	}
	if st.WAL == nil || st.WAL.Error == "" {
		t.Fatalf("wal block missing the latched error: %+v", st.WAL)
	}
	if st.WAL.FsyncPolicy != "batch" {
		t.Fatalf("fsync_policy %q", st.WAL.FsyncPolicy)
	}
}

// panicEstimator stands in for a solver with a crashing bug.
type panicEstimator struct{}

func (panicEstimator) Name() string        { return "panic" }
func (panicEstimator) Description() string { return "always panics" }
func (panicEstimator) Estimate(context.Context, *topology.Topology, observe.Store, ...estimator.Option) (*estimator.Estimate, error) {
	panic("estimator bug")
}

// epochEstimator is the slot the panic tests inject panicEstimator
// into: the estimator the one-block backend solves a stateless
// algorithm's epochs with.
func epochEstimator(s *Server) *estimator.Estimator {
	return &s.backend.(*oneBlockBackend).est
}

// A panicking solver must not kill the daemon: the panic surfaces as
// an ErrSolverPanic error snapshot plus degraded_reason on status, and
// the next clean epoch clears the degradation.
func TestSolverPanicContainment(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 200,
		Algo:       estimator.Independence, // no warm solver: the backend's estimator drives the epoch
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	ingestSimulated(t, s, top, 200)
	est := epochEstimator(s)
	good := *est
	*est = panicEstimator{}

	snap := s.Recompute(nil)
	if !errors.Is(snap.Err, ErrSolverPanic) {
		t.Fatalf("snapshot error %v, want ErrSolverPanic", snap.Err)
	}
	if s.DegradedReason() == "" {
		t.Fatal("panic did not mark the service degraded")
	}
	code, env, _ := get(t, s.Handler(), "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	var st StatusResponse
	decodeData(t, env, &st)
	if !st.Degraded || !strings.Contains(st.DegradedReason, "panicked") {
		t.Fatalf("status after panic: degraded=%v reason=%q", st.Degraded, st.DegradedReason)
	}
	if st.SolverError == "" {
		t.Fatal("panic epoch published without solver_error")
	}

	// Recovery: a clean epoch clears the degradation.
	*est = good
	if snap := s.Recompute(nil); snap.Err != nil {
		t.Fatalf("clean recompute: %v", snap.Err)
	}
	if r := s.DegradedReason(); r != "" {
		t.Fatalf("degradation not cleared by clean epoch: %q", r)
	}
}

// Liveness and readiness probes: healthz is always 200; readyz flips
// to 200 once the first snapshot is published (WAL recovery, when
// enabled, completed synchronously in New). Both payloads are golden.
func TestHealthzReadyz(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 200, SolverOpts: solverOpts()})
	defer s.Close()
	h := s.Handler()

	code, _, body := get(t, h, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if want := `{"api_version":"v1","data":{"status":"ok"}}`; body != want {
		t.Fatalf("healthz golden mismatch:\n got: %s\nwant: %s", body, want)
	}

	code, env, _ := get(t, h, "/v1/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before first epoch returned %d", code)
	}
	if env.Error == nil || env.Error.Code != CodeNotReady {
		t.Fatalf("readyz error envelope %+v, want code %q", env.Error, CodeNotReady)
	}

	ingestSimulated(t, s, top, 200)
	if snap := s.Recompute(nil); snap.Err != nil {
		t.Fatal(snap.Err)
	}
	code, _, body = get(t, h, "/v1/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz after first epoch returned %d", code)
	}
	if want := `{"api_version":"v1","data":{"status":"ready"}}`; body != want {
		t.Fatalf("readyz golden mismatch:\n got: %s\nwant: %s", body, want)
	}
}

// An oversized ingest body gets the structured 413 envelope, not a
// generic decode error.
func TestIngestPayloadTooLarge(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts(), MaxIngestBytes: 96})
	defer s.Close()
	h := s.Handler()

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations",
		strings.NewReader(`{"intervals":[{"congested_paths":[0]}]}`)))
	if rw.Code != http.StatusOK {
		t.Fatalf("small body returned %d: %s", rw.Code, rw.Body)
	}

	big := `{"intervals":[` + strings.Repeat(`{"congested_paths":[0]},`, 20) + `{"congested_paths":[0]}]}`
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(big)))
	if rw.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d: %s", rw.Code, rw.Body)
	}
	var env Envelope
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != CodePayloadTooLarge {
		t.Fatalf("error envelope %+v, want code %q", env.Error, CodePayloadTooLarge)
	}
	want := `{"api_version":"v1","error":{"code":"payload_too_large","message":"body exceeds the 96-byte ingest limit; split the batch"}}`
	if got := strings.TrimSpace(rw.Body.String()); got != want {
		t.Fatalf("413 golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestCrashRecoveryE2E is the headline durability test: stream 10k
// intervals at the daemon over HTTP, kill it at a random point (the
// process dies without a clean WAL close and the page cache loses a
// random suffix of the active segment — simulated by truncating it),
// restart on the same -wal-dir, resume the stream from the recovered
// high-water mark, and finish. The final estimate must be bit-identical
// to an uninterrupted run (here: the offline solve over exactly the
// last windowSize intervals, the same oracle the uninterrupted e2e
// pins).
func TestCrashRecoveryE2E(t *testing.T) {
	const totalIntervals, windowSize, batchSize = 10000, 2000, 250
	const streamSeed = 7
	top := testTopology(t)
	dir := t.TempDir()
	cfg := Config{
		WindowSize:     windowSize,
		RecomputeEvery: 20 * time.Millisecond,
		SolverOpts:     solverOpts(),
		WAL:            wal.Options{Dir: dir, Policy: wal.SyncInterval, SyncEvery: 5 * time.Millisecond},
	}
	sim := simStream(t, top, totalIntervals, streamSeed)
	crashRng := rand.New(rand.NewSource(11))
	crashAt := windowSize + crashRng.Intn(totalIntervals-windowSize)

	// Phase 1: ingest over HTTP until the crash point, solver running.
	a := newServer(t, top, cfg)
	a.Start()
	tsA := httptest.NewServer(a.Handler())
	for lo := 0; lo < crashAt; lo += batchSize {
		hi := min(lo+batchSize, crashAt)
		if code, env := postObservations(t, tsA.Client(), tsA.URL, sim[lo:hi]); code != http.StatusOK {
			t.Fatalf("ingest [%d,%d) returned %d: %+v", lo, hi, code, env.Error)
		}
	}
	tsA.Close()
	a.Close()

	// The kill: tear a random suffix off the newest segment, as a
	// crash between fsyncs would.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no WAL segments written")
	}
	tail := filepath.Join(dir, entries[len(entries)-1].Name())
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(crashRng.Intn(4096))
	if cut > fi.Size() {
		cut = fi.Size()
	}
	if err := os.Truncate(tail, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart on the same dir; the client reads the recovered
	// high-water mark from /v1/status and resumes the stream there.
	b := newServer(t, top, cfg)
	b.Start()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.Close()
	var st StatusResponse
	if code := getJSON(t, tsB.Client(), tsB.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	if st.WAL == nil {
		t.Fatal("status missing wal block")
	}
	resume := st.IngestedSeq
	if resume > uint64(crashAt) {
		t.Fatalf("recovered seq %d past the crash point %d", resume, crashAt)
	}
	if st.WAL.RecoveredRecords == 0 || st.WAL.LastSeq != resume {
		t.Fatalf("wal status inconsistent with recovery: %+v at seq %d", st.WAL, resume)
	}
	t.Logf("crash at %d, torn %d bytes, recovered to %d (%d records)",
		crashAt, cut, resume, st.WAL.RecoveredRecords)
	for lo := int(resume); lo < totalIntervals; lo += batchSize {
		hi := min(lo+batchSize, totalIntervals)
		if code, env := postObservations(t, tsB.Client(), tsB.URL, sim[lo:hi]); code != http.StatusOK {
			t.Fatalf("resumed ingest [%d,%d) returned %d: %+v", lo, hi, code, env.Error)
		}
	}

	snap := b.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if snap.SeqHigh != totalIntervals || snap.T != windowSize {
		t.Fatalf("final snapshot seq=%d T=%d, want %d/%d", snap.SeqHigh, snap.T, totalIntervals, windowSize)
	}

	// Oracle: the offline solve over exactly the last windowSize
	// intervals of the same stream — what an uninterrupted run pins.
	rng := rand.New(rand.NewSource(streamSeed))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, totalIntervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), windowSize)
	for ti := 0; ti < totalIntervals; ti++ {
		obs := model.Interval(ti, rng)
		if ti >= totalIntervals-windowSize {
			rec.Add(obs.CongestedPaths)
		}
	}
	ref, err := core.Compute(context.Background(), top, rec, solverConfig())
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < top.NumLinks(); e++ {
		want, wantExact := ref.LinkCongestProbOrFallback(e)
		got, gotExact := snap.Est.LinkCongestProb(e)
		if got != want || gotExact != wantExact {
			t.Fatalf("link %d: crash-recovered run (%v,%v) != uninterrupted oracle (%v,%v)",
				e, got, gotExact, want, wantExact)
		}
	}
}

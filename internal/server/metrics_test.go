package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// delta reads the change of one snapshot key between two registry
// snapshots. The registry is process-wide and other tests in the
// package move the same counters, so metric assertions must always be
// delta-based, never absolute.
func delta(pre, post map[string]float64, key string) float64 {
	return post[key] - pre[key]
}

// TestMetricsEndToEnd streams batches over real HTTP and asserts the
// ingest counters, WAL counters, HTTP request counters, and the
// per-stage epoch histogram all advanced by exactly the amounts the
// traffic implies, and that /metrics exposes every family in valid
// exposition format.
func TestMetricsEndToEnd(t *testing.T) {
	const batches, perBatch = 10, 5
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 500,
		SolverOpts: solverOpts(),
		WAL:        wal.Options{Dir: t.TempDir(), Policy: wal.SyncPerBatch},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pre := telemetry.Default().Snapshot()

	body := `{"intervals":[` + strings.Repeat(`{"congested_paths":[0]},`, perBatch-1) + `{"congested_paths":[0]}]}`
	for i := 0; i < batches; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	// Two explicit epochs: the first is a cold solve (fresh plan), the
	// second warm (carried plan, no drift in between).
	for i := 0; i < 2; i++ {
		if snap := s.Recompute(nil); snap.Err != nil {
			t.Fatal(snap.Err)
		}
	}

	post := telemetry.Default().Snapshot()
	intDeltas := map[string]float64{
		"tomod_ingest_batches_total":   batches,
		"tomod_ingest_intervals_total": batches * perBatch,
		"tomod_wal_appends_total":      batches,
		`tomod_http_requests_total{route="POST /v1/observations",code="200"}`: batches,
		// Each published epoch observes its solve tail; only the cold
		// first epoch has a structural rebuild stage.
		`tomod_epoch_compute_seconds_count{stage="solve"}`:   2,
		`tomod_epoch_compute_seconds_count{stage="rebuild"}`: 1,
		`tomod_epoch_solves_total{path="cold"}`:              1,
		`tomod_epoch_solves_total{path="warm"}`:              1,
	}
	for key, want := range intDeltas {
		if got := delta(pre, post, key); got != want {
			t.Errorf("delta(%s) = %v, want %v", key, got, want)
		}
	}
	if got := delta(pre, post, "tomod_wal_bytes_written_total"); got <= 0 {
		t.Errorf("wal bytes delta %v, want > 0", got)
	}
	if got := delta(pre, post, "tomod_wal_fsync_duration_seconds_count"); got < float64(batches) {
		t.Errorf("fsync count delta %v, want >= %d (SyncPerBatch)", got, batches)
	}

	// The exposition endpoint itself: right content type, every family
	// the server registers present with TYPE lines.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE tomod_http_requests_total counter",
		"# TYPE tomod_http_request_duration_seconds histogram",
		"# TYPE tomod_http_in_flight_requests gauge",
		"# TYPE tomod_ingest_batches_total counter",
		"# TYPE tomod_ingest_intervals_total counter",
		"# TYPE tomod_ingest_rejected_total counter",
		"# TYPE tomod_window_evictions_total counter",
		"# TYPE tomod_wal_appends_total counter",
		"# TYPE tomod_wal_fsync_duration_seconds histogram",
		"# TYPE tomod_wal_segment_rotations_total counter",
		"# TYPE tomod_wal_degraded gauge",
		"# TYPE tomod_epoch_solves_total counter",
		"# TYPE tomod_epoch_compute_seconds histogram",
		"# TYPE tomod_epoch_lag_intervals gauge",
		"# TYPE tomod_solver_panics_total counter",
		"# TYPE tomod_build_info gauge",
		"# TYPE tomod_uptime_seconds gauge",
		"# TYPE tomod_gomaxprocs gauge",
		`tomod_build_info{goversion="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsStrideDrain is TestMetricsEndToEnd's twin for the
// interval-stride path: with EpochEvery set and ingest ending on a
// stride boundary, every epoch is published by drainBacklog's batched
// solve, and each must still feed the per-stage histograms.
func TestMetricsStrideDrain(t *testing.T) {
	const stride, checkpoints = 10, 3
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 500, EpochEvery: stride, SolverOpts: solverOpts()})
	defer s.Close()
	batch := make([]*bitset.Set, stride*checkpoints)
	for i := range batch {
		batch[i] = bitset.FromIndices(top.NumPaths(), 0)
	}

	pre := telemetry.Default().Snapshot()
	if _, err := s.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if snap := s.Recompute(nil); snap.Err != nil {
		t.Fatal(snap.Err)
	}
	post := telemetry.Default().Snapshot()

	history := s.History()
	if len(history) != checkpoints {
		t.Fatalf("history has %d epochs, want %d (all from the drain)", len(history), checkpoints)
	}
	cold := 0
	for _, h := range history {
		if !h.Warm {
			cold++
		}
	}
	if cold == 0 || cold == checkpoints {
		t.Fatalf("%d of %d drained epochs cold, want a mix", cold, checkpoints)
	}
	for key, want := range map[string]float64{
		`tomod_epoch_compute_seconds_count{stage="solve"}`:   checkpoints,
		`tomod_epoch_compute_seconds_count{stage="rebuild"}`: float64(cold),
		`tomod_epoch_solves_total{path="cold"}`:              float64(cold),
	} {
		if got := delta(pre, post, key); got != want {
			t.Errorf("delta(%s) = %v, want %v", key, got, want)
		}
	}
}

// TestMetricsEvictionsSharded pins tomod_window_evictions_total in
// sharded mode: the daemon keeps one window whatever the shard count,
// so an interval that ages out is one eviction — not one per shard, as
// it was while every shard had a ring of its own.
func TestMetricsEvictionsSharded(t *testing.T) {
	const window, extra = 40, 7
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize: window,
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	if s.NumShards() < 2 {
		t.Fatalf("server runs %d shard solvers, want ≥ 2", s.NumShards())
	}
	batch := make([]*bitset.Set, window+extra)
	for i := range batch {
		batch[i] = bitset.FromIndices(top.NumPaths(), i%top.NumPaths())
	}
	pre := telemetry.Default().Snapshot()
	if _, err := s.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	post := telemetry.Default().Snapshot()
	if got := delta(pre, post, "tomod_window_evictions_total"); got != extra {
		t.Fatalf("evictions advanced by %v for %d aged-out intervals over %d shards, want %d",
			got, extra, s.NumShards(), extra)
	}
}

// TestStatusBuildInfo covers the /v1/status process-identity fields:
// uptime advances, the Go version is stamped, and GOMAXPROCS is the
// solver's parallelism budget.
func TestStatusBuildInfo(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts()})
	defer s.Close()

	code, env, _ := get(t, s.Handler(), "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	var st StatusResponse
	decodeData(t, env, &st)
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	if !strings.HasPrefix(st.GoVersion, "go") {
		t.Errorf("go_version = %q", st.GoVersion)
	}
	if st.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", st.GOMAXPROCS)
	}
}

// TestReadyzDegraded covers the readiness probe's degraded states: a
// latched WAL failure and an uncleared solver panic must both answer
// 503 with their reason even though the first epoch has published, and
// recovery must flip the probe back to 200.
func TestReadyzDegraded(t *testing.T) {
	t.Run("wal_unavailable", func(t *testing.T) {
		top := testTopology(t)
		ffs := faultfs.New(nil)
		s := newServer(t, top, Config{
			WindowSize: 100,
			SolverOpts: solverOpts(),
			WAL:        wal.Options{Dir: t.TempDir(), FS: ffs, Policy: wal.SyncPerBatch},
		})
		defer s.Close()
		h := s.Handler()

		ingestSimulated(t, s, top, 50)
		if snap := s.Recompute(nil); snap.Err != nil {
			t.Fatal(snap.Err)
		}
		if code, _, _ := get(t, h, "/v1/readyz"); code != http.StatusOK {
			t.Fatalf("readyz healthy returned %d", code)
		}

		ffs.FailSync(faultfs.ErrInjectedSync)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations",
			strings.NewReader(`{"intervals":[{"congested_paths":[0]}]}`)))
		if rw.Code != http.StatusServiceUnavailable {
			t.Fatalf("ingest with failing WAL returned %d", rw.Code)
		}

		code, env, _ := get(t, h, "/v1/readyz")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("readyz with latched WAL returned %d", code)
		}
		if env.Error == nil || env.Error.Code != CodeWALUnavailable {
			t.Fatalf("readyz error envelope %+v, want code %q", env.Error, CodeWALUnavailable)
		}
	})

	t.Run("solver_panic", func(t *testing.T) {
		top := testTopology(t)
		s := newServer(t, top, Config{
			WindowSize: 200,
			Algo:       estimator.Independence,
			SolverOpts: solverOpts(),
		})
		defer s.Close()
		h := s.Handler()

		ingestSimulated(t, s, top, 200)
		est := epochEstimator(s)
		good := *est
		if snap := s.Recompute(nil); snap.Err != nil {
			t.Fatal(snap.Err)
		}

		*est = panicEstimator{}
		s.Recompute(nil)
		code, env, _ := get(t, h, "/v1/readyz")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("readyz while degraded returned %d", code)
		}
		if env.Error == nil || env.Error.Code != CodeSolverPanic {
			t.Fatalf("readyz error envelope %+v, want code %q", env.Error, CodeSolverPanic)
		}

		*est = good
		if snap := s.Recompute(nil); snap.Err != nil {
			t.Fatal(snap.Err)
		}
		if code, _, _ := get(t, h, "/v1/readyz"); code != http.StatusOK {
			t.Fatalf("readyz after recovery returned %d", code)
		}
	})
}

// TestMetricsSolverPanicCounter pins the panic counter to the
// containment path.
func TestMetricsSolverPanicCounter(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize: 100,
		Algo:       estimator.Independence,
		SolverOpts: solverOpts(),
	})
	defer s.Close()
	ingestSimulated(t, s, top, 100)
	*epochEstimator(s) = panicEstimator{}

	pre := telemetry.Default().Snapshot()
	s.Recompute(nil)
	post := telemetry.Default().Snapshot()
	if got := delta(pre, post, "tomod_solver_panics_total"); got != 1 {
		t.Fatalf("panic counter delta %v, want 1", got)
	}
}

// TestIngestRejectedCounters pins each rejection reason to its label.
func TestIngestRejectedCounters(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts()})
	defer s.Close()
	h := s.Handler()

	reject := func(body string) {
		t.Helper()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body)))
		if rw.Code == http.StatusOK {
			t.Fatalf("expected rejection, got 200 for %q", body)
		}
	}

	pre := telemetry.Default().Snapshot()
	reject(`{"intervals":`)
	reject(fmt.Sprintf(`{"intervals":[{"congested_paths":[%d]}]}`, top.NumPaths()))
	post := telemetry.Default().Snapshot()

	if got := delta(pre, post, `tomod_ingest_rejected_total{reason="bad_request"}`); got != 1 {
		t.Errorf("bad_request delta %v, want 1", got)
	}
	if got := delta(pre, post, `tomod_ingest_rejected_total{reason="bad_path"}`); got != 1 {
		t.Errorf("bad_path delta %v, want 1", got)
	}
}

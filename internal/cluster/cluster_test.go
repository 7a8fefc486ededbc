package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/wal"
)

// testWorker runs one worker process stand-in on a stable address so a
// "restarted" worker comes back where the coordinator expects it.
type testWorker struct {
	t      *testing.T
	top    *topology.Topology
	walDir string
	addr   string
	wk     *Worker
	ts     *httptest.Server
}

func newTestWorker(t *testing.T, top *topology.Topology, walDir string) *testWorker {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tw := &testWorker{t: t, top: top, walDir: walDir, addr: l.Addr().String()}
	tw.start(l)
	t.Cleanup(func() {
		if tw.ts != nil {
			tw.kill()
		}
	})
	return tw
}

func (tw *testWorker) url() string { return "http://" + tw.addr }

func (tw *testWorker) start(l net.Listener) {
	tw.wk = NewWorker(WorkerConfig{Topology: tw.top, WAL: wal.Options{Dir: tw.walDir}, Logger: discardLogger()})
	ts := httptest.NewUnstartedServer(tw.wk.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	tw.ts = ts
}

// kill stops serving and drops all in-memory state, leaving only the
// WAL (when configured) behind.
func (tw *testWorker) kill() {
	tw.ts.CloseClientConnections()
	tw.ts.Close()
	tw.wk.Close()
	tw.ts, tw.wk = nil, nil
}

// restart rebinds the same address with a fresh (empty) worker.
func (tw *testWorker) restart() {
	tw.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 100; i++ {
		l, err = net.Listen("tcp", tw.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tw.t.Fatalf("rebinding %s: %v", tw.addr, err)
	}
	tw.start(l)
}

// newClusterServer wires a coordinator over the given workers into a
// public server. Health checking runs fast so tests converge quickly.
func newClusterServer(t *testing.T, top *topology.Topology, workers []*testWorker, window int, recompute time.Duration) (*server.Server, *Coordinator) {
	t.Helper()
	specs := make([]WorkerSpec, len(workers))
	for i, tw := range workers {
		specs[i] = WorkerSpec{Addr: tw.url()}
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Topology:     top,
		Workers:      specs,
		WindowSize:   window,
		SolverOpts:   testSolverOpts(),
		Logger:       discardLogger(),
		RPCTimeout:   20 * time.Second, // cold solves are slow under -race
		HealthEvery:  20 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(top, server.Config{
		WindowSize:     window,
		RecomputeEvery: recompute,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     testSolverOpts(),
		Backend:        coord,
		Logger:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, coord
}

// A coordinator refuses a window above the ceiling its workers enforce,
// so every assignment it sends is one they accept.
func TestCoordinatorWindowCeiling(t *testing.T) {
	top := shardedTopology(t)
	for _, window := range []int{0, server.MaxWindowSize + 1} {
		_, err := NewCoordinator(CoordinatorConfig{
			Topology:   top,
			Workers:    []WorkerSpec{{Addr: "http://w"}},
			WindowSize: window,
			SolverOpts: testSolverOpts(),
		})
		if err == nil {
			t.Fatalf("NewCoordinator accepted window %d", window)
		}
	}
}

// newLocalServer is the single-process sharded reference the cluster
// must bit-match.
func newLocalServer(t *testing.T, top *topology.Topology, window int) *server.Server {
	t.Helper()
	s, err := server.New(top, server.Config{
		WindowSize:     window,
		RecomputeEvery: time.Hour,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     testSolverOpts(),
		Logger:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFleetHealthy(t *testing.T, coord *Coordinator, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		cs := coord.ClusterStatus()
		if len(cs.UnreachableShards) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never became healthy: %+v", cs.Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ingestRetry drives one batch into the cluster server, retrying the
// 503 shard_unavailable rejections that a worker outage produces. The
// base sequence cannot move while the batch is rejected, so the retry
// is exact.
func ingestRetry(t *testing.T, s *server.Server, batch []*bitset.Set, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, err := s.Ingest(batch)
		if err == nil {
			return
		}
		if !errors.Is(err, server.ErrShardUnavailable) {
			t.Fatalf("ingest failed hard: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func randomBatch(top *topology.Topology, rng *rand.Rand, n int) []*bitset.Set {
	batch := make([]*bitset.Set, n)
	for i := range batch {
		set := bitset.New(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if rng.Float64() < 0.15 {
				set.Add(p)
			}
		}
		batch[i] = set
	}
	return batch
}

// compareSnapshots asserts two final solves are bit-identical across
// every link probability.
func compareSnapshots(t *testing.T, top *topology.Topology, got, want *server.Snapshot) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("cluster solve: %v", got.Err)
	}
	if want.Err != nil {
		t.Fatalf("reference solve: %v", want.Err)
	}
	if got.SeqHigh != want.SeqHigh || got.T != want.T {
		t.Fatalf("cluster solved seq %d T %d, reference %d/%d", got.SeqHigh, got.T, want.SeqHigh, want.T)
	}
	for e := 0; e < top.NumLinks(); e++ {
		gp, gx := got.Est.LinkCongestProb(e)
		wp, wx := want.Est.LinkCongestProb(e)
		if math.Float64bits(gp) != math.Float64bits(wp) || gx != wx {
			t.Fatalf("link %d: cluster (%v,%v) != single-process (%v,%v)", e, gp, gx, wp, wx)
		}
	}
}

// TestClusterPropertyBitIdentical is the distribution-exactness
// property over randomized topogen topologies: a coordinator + 2
// workers must produce bit-identical estimates to a single sharded
// process fed the same accepted batches — including a case where a
// worker (without WAL) is killed mid-stream and rebuilt purely from
// coordinator replay (reset + full-window catch-up).
func TestClusterPropertyBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster property test is slow")
	}
	type tcase struct {
		seed int64
		kill bool
	}
	var cases []tcase
	for seed := int64(1); seed <= 10 && len(cases) < 3; seed++ {
		top := testTopology(t, seed)
		if topology.NewPartition(top).NumShards() < 2 {
			continue
		}
		cases = append(cases, tcase{seed: seed, kill: len(cases) == 1})
	}
	if len(cases) == 0 {
		t.Fatal("no multi-shard topology in seeds 1..10")
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed=%d,kill=%v", tc.seed, tc.kill), func(t *testing.T) {
			const window, batches, perBatch = 200, 30, 20
			top := testTopology(t, tc.seed)
			workers := []*testWorker{
				newTestWorker(t, top, ""),
				newTestWorker(t, top, ""),
			}
			cs, coord := newClusterServer(t, top, workers, window, time.Hour)
			cs.Start()
			defer cs.Close()
			ref := newLocalServer(t, top, window)
			ref.Start()
			defer ref.Close()
			waitFleetHealthy(t, coord, 10*time.Second)

			rng := rand.New(rand.NewSource(tc.seed * 1000))
			for bi := 0; bi < batches; bi++ {
				batch := randomBatch(top, rng, perBatch)
				if tc.kill && bi == batches/2 {
					workers[1].kill()
					// The outage must reject ingest outright — nothing
					// half-applied, the window frozen.
					if _, err := cs.Ingest(batch); !errors.Is(err, server.ErrShardUnavailable) {
						t.Fatalf("ingest during outage: %v, want shard unavailable", err)
					}
					workers[1].restart()
				}
				ingestRetry(t, cs, batch, 30*time.Second)
				if _, err := ref.Ingest(batch); err != nil {
					t.Fatal(err)
				}
			}
			waitFleetHealthy(t, coord, 10*time.Second)
			compareSnapshots(t, top, cs.Recompute(nil), ref.Recompute(nil))
		})
	}
}

// postBatch sends one /v1/observations batch; it returns the HTTP
// status, the API error code (if any), and the Retry-After header.
func postBatch(client *http.Client, base string, batch []*bitset.Set) (status int, errCode, retryAfter string, err error) {
	var req server.ObservationsRequest
	for _, set := range batch {
		req.Intervals = append(req.Intervals, server.IntervalObs{CongestedPaths: set.Indices()})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return 0, "", "", err
	}
	resp, err := client.Post(base+"/v1/observations", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return resp.StatusCode, "", "", err
	}
	if env.Error != nil {
		errCode = env.Error.Code
	}
	return resp.StatusCode, errCode, resp.Header.Get("Retry-After"), nil
}

// TestClusterE2E is the full cluster acceptance path over real HTTP:
// coordinator + 2 WAL-backed workers, a 10k-interval stream, one worker
// killed mid-stream (asserting latched degraded mode end to end:
// 503 shard_unavailable ingest with Retry-After, failing readiness, the
// cluster block of /v1/status, tomod_cluster_* metrics), then restarted
// — WAL replay + catch-up — and a final solve bit-identical to a
// single-process run. CI runs it under -race.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e is slow")
	}
	const window, totalIntervals, perBatch = 1000, 10000, 100
	top := shardedTopology(t)
	workers := []*testWorker{
		newTestWorker(t, top, t.TempDir()),
		newTestWorker(t, top, t.TempDir()),
	}
	cs, coord := newClusterServer(t, top, workers, window, 20*time.Millisecond)
	cs.Start()
	defer cs.Close()
	ts := httptest.NewServer(cs.Handler())
	defer ts.Close()
	client := ts.Client()
	ref := newLocalServer(t, top, window)
	ref.Start()
	defer ref.Close()
	waitFleetHealthy(t, coord, 10*time.Second)

	// The stream is simulated network telemetry, same generator as the
	// load tool.
	rng := rand.New(rand.NewSource(3))
	simCfg := netsim.DefaultConfig(netsim.RandomCongestion)
	simCfg.PerfectE2E = true
	model, err := netsim.NewModel(top, simCfg, totalIntervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	nextBatch := func(base int) []*bitset.Set {
		batch := make([]*bitset.Set, perBatch)
		for i := range batch {
			batch[i] = model.Interval(base+i, rng).CongestedPaths
		}
		return batch
	}

	killAt := totalIntervals / perBatch / 2
	for bi := 0; bi < totalIntervals/perBatch; bi++ {
		batch := nextBatch(bi * perBatch)
		if bi == killAt {
			workers[1].kill()
			assertDegraded(t, client, ts.URL, batch)
			workers[1].restart()
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			status, code, _, err := postBatch(client, ts.URL, batch)
			if err != nil {
				t.Fatal(err)
			}
			if status == http.StatusOK {
				break
			}
			if status != http.StatusServiceUnavailable || code != server.CodeShardUnavailable {
				t.Fatalf("batch %d: HTTP %d code %q", bi, status, code)
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch %d never accepted", bi)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := ref.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}

	waitFleetHealthy(t, coord, 10*time.Second)
	compareSnapshots(t, top, cs.Recompute(nil), ref.Recompute(nil))

	// /v1/status must expose the per-worker placement, healthy again.
	var st server.StatusResponse
	if _, err := getEnvelope(client, ts.URL+"/v1/status", &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Role != "coordinator" || len(st.Cluster.Workers) != 2 {
		t.Fatalf("status cluster block missing or wrong: %+v", st.Cluster)
	}
	seen := map[int]bool{}
	for _, w := range st.Cluster.Workers {
		if w.State != "healthy" {
			t.Fatalf("worker %s still %s after recovery (%s)", w.ID, w.State, w.LastError)
		}
		if len(w.Shards) == 0 {
			t.Fatalf("worker %s owns no shards", w.ID)
		}
		for _, k := range w.Shards {
			if seen[k] {
				t.Fatalf("shard %d placed twice", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != cs.NumShards() {
		t.Fatalf("placement covers %d shards, want %d", len(seen), cs.NumShards())
	}

	// Cluster metrics are exposed.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"tomod_cluster_rpc_duration_seconds",
		"tomod_cluster_fanout_seconds",
		"tomod_cluster_shards_unreachable",
		"tomod_cluster_workers_healthy",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}

// assertDegraded checks every degraded-mode surface while a worker is
// down. It first waits for the health loop to latch the outage (so the
// probe batch below is guaranteed to be rejected, never half-applied):
// then ingest must 503 with the structured code and Retry-After,
// readiness must fail, and /v1/status must report the outage.
func assertDegraded(t *testing.T, client *http.Client, base string, batch []*bitset.Set) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st server.StatusResponse
		if _, err := getEnvelope(client, base+"/v1/status", &st); err != nil {
			t.Fatal(err)
		}
		if st.Degraded && st.Cluster != nil && len(st.Cluster.UnreachableShards) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never latched the outage: degraded=%v cluster=%+v", st.Degraded, st.Cluster)
		}
		time.Sleep(10 * time.Millisecond)
	}
	status, code, retryAfter, err := postBatch(client, base, batch)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || code != server.CodeShardUnavailable {
		t.Fatalf("outage ingest answered HTTP %d code %q, want 503 %s", status, code, server.CodeShardUnavailable)
	}
	if retryAfter == "" {
		t.Fatal("outage 503 carries no Retry-After")
	}
	readyStatus, err := getEnvelope(client, base+"/v1/readyz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if readyStatus != http.StatusServiceUnavailable {
		t.Fatalf("readyz answered %d during outage, want 503", readyStatus)
	}
}

// getEnvelope fetches an enveloped public-API response.
func getEnvelope(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var env server.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
	}
	if v != nil && env.Data != nil {
		if err := json.Unmarshal(env.Data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// testTopology builds a small Brite overlay with router-level
// correlation ground truth (needed by the load generator's simulator).
func testTopology(t testing.TB) *topology.Topology {
	t.Helper()
	scale := experiment.Small()
	scale.BriteNumAS = 12
	scale.BritePaths = 40
	top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func solverOpts() []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(2),
		estimator.WithAlwaysGoodTol(0.02),
	}
}

func solverConfig() core.Config {
	return core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
}

// newServer is New with a fatal error check.
func newServer(t testing.TB, top *topology.Topology, cfg Config) *Server {
	t.Helper()
	s, err := New(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fetchJSON fetches url and decodes the body into v, returning the
// status code. Safe to call from any goroutine.
func fetchJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		var env Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: decoding envelope: %w", url, err)
		}
		if env.APIVersion != APIVersion {
			return resp.StatusCode, fmt.Errorf("GET %s: api_version %q", url, env.APIVersion)
		}
		if err := json.Unmarshal(env.Data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: decoding data: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// getJSON is fetchJSON for the test goroutine: transport and decode
// errors are fatal.
func getJSON(t testing.TB, client *http.Client, url string, v any) int {
	t.Helper()
	code, err := fetchJSON(client, url, v)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestEndToEndStreaming is the acceptance test of the streaming
// subsystem: the load generator ingests 10k simulated intervals over
// real HTTP while concurrent readers query links, congested paths and
// status; every answer must be internally consistent with one epoch,
// epochs must be monotone per reader, and the final published state
// must bit-match an offline core.Compute over a fresh window holding
// exactly the surviving window intervals.
func TestEndToEndStreaming(t *testing.T) {
	const totalIntervals, windowSize = 10000, 2000
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize:     windowSize,
		RecomputeEvery: 20 * time.Millisecond,
		SolverOpts:     solverOpts(),
	})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Concurrent readers: hammer the query endpoints during ingest.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var readerErrs []string
	fail := func(format string, args ...any) {
		mu.Lock()
		readerErrs = append(readerErrs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				var st StatusResponse
				code, err := fetchJSON(ts.Client(), ts.URL+"/v1/status", &st)
				if err != nil {
					fail("%v", err)
					return
				}
				if code != http.StatusOK {
					fail("status returned %d", code)
					return
				}
				if st.Epoch < lastEpoch {
					fail("epoch went backwards: %d then %d", lastEpoch, st.Epoch)
					return
				}
				lastEpoch = st.Epoch
				if st.SnapshotSeq > st.IngestedSeq {
					fail("snapshot ahead of ingest: %d > %d", st.SnapshotSeq, st.IngestedSeq)
					return
				}
				var lr LinkResponse
				code, err = fetchJSON(ts.Client(), ts.URL+"/v1/links/"+[]string{"0", "1", "2"}[g], &lr)
				if err != nil {
					fail("%v", err)
					return
				}
				switch code {
				case http.StatusServiceUnavailable:
					// No snapshot yet: legal before the first epoch.
				case http.StatusOK:
					if lr.CongestProb < 0 || lr.CongestProb > 1 || math.IsNaN(lr.CongestProb) {
						fail("link prob out of range: %v", lr.CongestProb)
						return
					}
					if lr.Epoch == 0 {
						fail("link answer without an epoch")
						return
					}
				default:
					fail("link returned %d", code)
					return
				}
				var cp CongestedPathsResponse
				code, err = fetchJSON(ts.Client(), ts.URL+"/v1/paths/congested?min=0.25", &cp)
				if err != nil {
					fail("%v", err)
					return
				}
				if code == http.StatusOK {
					for _, p := range cp.Paths {
						if p.CongestedFraction < 0.25 || p.CongestedFraction > 1 {
							fail("congested fraction out of range: %v", p.CongestedFraction)
							return
						}
					}
				}
			}
		}(g)
	}

	// Drive 10k intervals at the server over HTTP.
	simCfg := netsim.DefaultConfig(netsim.RandomCongestion)
	simCfg.PerfectE2E = true
	loadCfg := loadConfig{
		Target:    ts.URL,
		Intervals: totalIntervals,
		BatchSize: 250,
		Seed:      3,
		Sim:       simCfg,
		Client:    ts.Client(),
	}
	sent, err := runLoadGen(context.Background(), top, loadCfg)
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	for _, msg := range readerErrs {
		t.Error(msg)
	}
	if sent != totalIntervals {
		t.Fatalf("loadgen sent %d intervals, want %d", sent, totalIntervals)
	}

	// Final synchronous epoch over the fully ingested window.
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatalf("solver: %v", snap.Err)
	}
	if snap.SeqHigh != totalIntervals {
		t.Fatalf("snapshot seq %d, want %d", snap.SeqHigh, totalIntervals)
	}
	if snap.T != windowSize {
		t.Fatalf("snapshot window has %d intervals, want %d", snap.T, windowSize)
	}

	// Epoch determinism: recomputing with no new data must publish a
	// bit-identical result.
	snap2 := s.Recompute(nil)
	if snap2.Epoch <= snap.Epoch {
		t.Fatalf("epoch did not advance: %d then %d", snap.Epoch, snap2.Epoch)
	}
	for e := 0; e < top.NumLinks(); e++ {
		p1, x1 := snap.Est.LinkCongestProb(e)
		p2, x2 := snap2.Est.LinkCongestProb(e)
		if p1 != p2 || x1 != x2 {
			t.Fatalf("link %d: quiescent epochs disagree: (%v,%v) vs (%v,%v)", e, p1, x1, p2, x2)
		}
	}

	// Ground-truth replay: rebuild the exact observation stream the
	// load generator sent (same seed, same model), keep the last
	// windowSize intervals in a fresh window, and solve offline. The
	// streamed window must produce bit-identical link probabilities.
	rng := rand.New(rand.NewSource(loadCfg.Seed))
	model, err := netsim.NewModel(top, simCfg, totalIntervals, rng)
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
			t.Fatalf("link %d: streamed window (%v,%v) != offline replay (%v,%v)",
				e, got, gotExact, want, wantExact)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{SolverOpts: solverOpts()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"intervals": [{"congested_paths": [0, 1]}, {"congested_paths": []}]}`); code != http.StatusOK {
		t.Fatalf("valid batch: %d", code)
	}
	if got := s.Seq(); got != 2 {
		t.Fatalf("seq = %d, want 2", got)
	}
	if code := post(`{"intervals"`); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON: %d, want 400", code)
	}
	if code := post(`{"intervals": [{"congested_paths": [-1]}]}`); code != http.StatusBadRequest {
		t.Fatalf("negative path: %d, want 400", code)
	}
	if code := post(`{"intervals": [{"congested_paths": [99999]}]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-universe path: %d, want 400", code)
	}
	// Rejected batches must not have been partially applied.
	if got := s.Seq(); got != 2 {
		t.Fatalf("seq after rejected batches = %d, want 2", got)
	}
}

func TestQueryEndpoints(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before any snapshot: 503 for answers, 200 for status.
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/links/0", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("link before snapshot: %d, want 503", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/paths/congested", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("paths before snapshot: %d, want 503", code)
	}
	var st StatusResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Epoch != 0 || st.WindowCap != 100 {
		t.Fatalf("zero-state status: %+v", st)
	}

	// Bad link ids.
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/links/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("non-numeric link: %d, want 400", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/links/99999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown link: %d, want 404", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/paths/congested?min=2", nil); code != http.StatusBadRequest {
		t.Fatalf("bad threshold: %d, want 400", code)
	}

	// Ingest a little traffic and solve one epoch synchronously.
	simCfg := netsim.DefaultConfig(netsim.RandomCongestion)
	simCfg.PerfectE2E = true
	if _, err := runLoadGen(context.Background(), top, loadConfig{
		Target: ts.URL, Intervals: 150, BatchSize: 40, Seed: 7, Sim: simCfg, Client: ts.Client(),
	}); err != nil {
		t.Fatal(err)
	}
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if snap.T != 100 || snap.SeqHigh != 150 {
		t.Fatalf("snapshot T=%d seq=%d, want 100/150", snap.T, snap.SeqHigh)
	}

	var lr LinkResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/links/0", &lr); code != http.StatusOK {
		t.Fatalf("link after snapshot: %d", code)
	}
	if lr.Epoch != snap.Epoch || lr.WindowT != 100 || lr.SeqHigh != 150 {
		t.Fatalf("link response inconsistent with snapshot: %+v", lr)
	}
	var cp CongestedPathsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/paths/congested?min=0", &cp); code != http.StatusOK {
		t.Fatalf("paths after snapshot: %d", code)
	}
	if len(cp.Paths) != top.NumPaths() {
		t.Fatalf("min=0 should list every path: %d of %d", len(cp.Paths), top.NumPaths())
	}
	for i := 1; i < len(cp.Paths); i++ {
		if cp.Paths[i].CongestedFraction > cp.Paths[i-1].CongestedFraction {
			t.Fatal("paths not sorted by congested fraction")
		}
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Epoch != snap.Epoch || st.SnapshotSeq != 150 || st.LagIntervals != 0 {
		t.Fatalf("status inconsistent after quiescent solve: %+v", st)
	}
	if len(st.Shards) != 0 || s.NumShards() != 0 {
		t.Fatalf("standalone server reports %d status shards, NumShards %d; want none", len(st.Shards), s.NumShards())
	}
}

// The background loop must publish fresh epochs as data arrives and
// skip ticks with nothing new.
func TestRecomputeLoop(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{
		WindowSize:     200,
		RecomputeEvery: 5 * time.Millisecond,
		SolverOpts:     solverOpts(),
	})
	s.Start()
	defer s.Close()

	rng := rand.New(rand.NewSource(9))
	simCfg := netsim.DefaultConfig(netsim.RandomCongestion)
	simCfg.PerfectE2E = true
	model, err := netsim.NewModel(top, simCfg, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 300; ti++ {
		s.Ingest([]*bitset.Set{model.Interval(ti, rng).CongestedPaths})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.Latest()
		if snap != nil && snap.SeqHigh == 300 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loop never caught up with ingest")
		}
		time.Sleep(time.Millisecond)
	}
	// Quiescent: epochs must stop advancing once the loop has seen all
	// data (the skip branch).
	e1 := s.Latest().Epoch
	time.Sleep(30 * time.Millisecond)
	if e2 := s.Latest().Epoch; e2 != e1 {
		t.Fatalf("epoch advanced with no new data: %d then %d", e1, e2)
	}
}

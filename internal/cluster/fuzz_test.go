package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/server"
	"repro/internal/topology"
)

// serveWire runs one request through h and decodes the envelope every
// answer must carry.
func serveWire(t testing.TB, h http.Handler, method, path string, body []byte) (int, envelope) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
	var env envelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s %s answered HTTP %d without an envelope: %v", method, path, rr.Code, err)
	}
	if env.WireVersion != WireVersion {
		t.Fatalf("%s %s answered wire version %q", method, path, env.WireVersion)
	}
	return rr.Code, env
}

// FuzzWorkerIngest posts arbitrary POST /c1/ingest bodies to an
// assigned worker reset to sequence 0. It never panics and always
// answers with an envelope; a body naming a path outside the universe
// is refused as bad_request with the sequence unchanged; and an
// accepted batch round-trips — the window's rows are the body's
// intervals masked to the worker's shard, the smallest one, so the
// mask drops most paths.
func FuzzWorkerIngest(f *testing.F) {
	top := shardedTopology(f)
	const window = 8
	all := make([]int, top.NumPaths())
	for p := range all {
		all[p] = p
	}
	recorded, err := json.Marshal(&IngestRequest{Intervals: append(randomIntervals(top, 3, 1), all)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(recorded),
		`{"base_seq":0,"intervals":[[0,1],[2],[]]}`,
		`{"base_seq":0,"intervals":[[-1]]}`,
		fmt.Sprintf(`{"intervals":[[0],[%d]]}`, top.NumPaths()),
		`{"base_seq":7,"intervals":[[1]]}`,
		`{"intervals":null}`,
		`{"base_seq":-1}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}

	part := topology.NewPartition(top)
	shard := 0
	for k := 1; k < part.NumShards(); k++ {
		if part.ShardPaths(k).Count() < part.ShardPaths(shard).Count() {
			shard = k
		}
	}
	mask := part.ShardPaths(shard)
	wk := NewWorker(WorkerConfig{Topology: top, Logger: discardLogger()})
	h := wk.Handler()
	assign, err := json.Marshal(testAssignRequest(top, []int{shard}, window))
	if err != nil {
		f.Fatal(err)
	}
	if code, env := serveWire(f, h, http.MethodPost, "/c1/assign", assign); code != http.StatusOK {
		f.Fatalf("assign answered HTTP %d: %+v", code, env.Error)
	}
	numPaths := top.NumPaths()

	f.Fuzz(func(t *testing.T, body []byte) {
		if code, env := serveWire(t, h, http.MethodPost, "/c1/reset", []byte(`{"seq":0}`)); code != http.StatusOK {
			t.Fatalf("reset answered HTTP %d: %+v", code, env.Error)
		}
		code, env := serveWire(t, h, http.MethodPost, "/c1/ingest", body)
		wk.mu.Lock()
		win := wk.win.Clone()
		wk.mu.Unlock()

		// The oracle decodes the body the way the worker does.
		var req IngestRequest
		wantCode := ""
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			wantCode = CodeBadRequest
		} else if req.BaseSeq > 0 {
			wantCode = CodeSeqGap
		} else {
			for _, iv := range req.Intervals {
				for _, p := range iv {
					if p < 0 || p >= numPaths {
						wantCode = CodeBadRequest
					}
				}
			}
		}
		if wantCode != "" {
			if env.Error == nil || env.Error.Code != wantCode {
				t.Fatalf("HTTP %d error %+v, want %s", code, env.Error, wantCode)
			}
			if win.Seq() != 0 {
				t.Fatalf("refused body moved the worker to seq %d", win.Seq())
			}
			return
		}
		if code != http.StatusOK || env.Error != nil {
			t.Fatalf("valid body answered HTTP %d: %+v", code, env.Error)
		}
		n := len(req.Intervals)
		if win.Seq() != uint64(n) || win.T() != min(n, window) {
			t.Fatalf("accepted %d intervals: seq %d T %d", n, win.Seq(), win.T())
		}
		for i := 0; i < win.T(); i++ {
			want := bitset.FromIndices(numPaths, req.Intervals[n-win.T()+i]...)
			want.IntersectWith(mask)
			if got := win.CongestedAt(i); !got.Equal(want) {
				t.Fatalf("row %d holds %v, want %v", i, got.Indices(), want.Indices())
			}
		}
	})
}

// recorderTransport serves every request in-process from h through an
// httptest recorder.
type recorderTransport struct{ h http.Handler }

func (t recorderTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, r)
	return rw.Result(), nil
}

// FuzzShardResult answers the coordinator's shard-0 result RPC with
// arbitrary bodies from an httptest stub worker. SolveShard never
// panics: it returns a block whose sets all lie inside their universes
// and whose subsets name correlation sets of the topology, or an error
// wrapping server.ErrShardUnavailable.
func FuzzShardResult(f *testing.F) {
	top := shardedTopology(f)
	sv, err := estimator.NewShardedSolver(top, testSolverOpts()...)
	if err != nil {
		f.Fatal(err)
	}
	rec := randomRecorder(top, 200, 7)
	res, info, err := sv.SolveShard(context.Background(), 0, rec)
	if err != nil {
		f.Fatal(err)
	}
	if len(res.Subsets) < 2 || len(res.PathSets) < 2 {
		f.Fatal("shard 0 solved to a block of fewer than two subsets or path sets")
	}
	answer := func(edit func(*ShardResultResponse)) []byte {
		resp := encodeResult(0, 200, rec.T(), res, info)
		// Two of each keep the seeds small: on inputs the size of the
		// whole block the mutator barely advances.
		resp.Subsets, resp.PathSets = resp.Subsets[:2], resp.PathSets[:2]
		edit(resp)
		data, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		env, err := json.Marshal(envelope{WireVersion: WireVersion, Data: data})
		if err != nil {
			f.Fatal(err)
		}
		return env
	}
	for _, seed := range [][]byte{
		answer(func(*ShardResultResponse) {}),
		answer(func(r *ShardResultResponse) { r.Subsets[0].Links = append(r.Subsets[0].Links, -1) }),
		answer(func(r *ShardResultResponse) { r.Subsets[0].Links = append(r.Subsets[0].Links, top.NumLinks()) }),
		answer(func(r *ShardResultResponse) { r.Subsets[0].Links = append(r.Subsets[0].Links, 1<<20) }),
		answer(func(r *ShardResultResponse) { r.PathSets[0] = append(r.PathSets[0], -1) }),
		answer(func(r *ShardResultResponse) { r.PathSets[0] = append(r.PathSets[0], top.NumPaths()) }),
		answer(func(r *ShardResultResponse) { r.Subsets[0].CorrSet = -1 }),
		answer(func(r *ShardResultResponse) { r.Subsets[0].CorrSet = len(top.CorrSets) }),
		answer(func(r *ShardResultResponse) { r.Shard = 1 }),
		[]byte(`{"wire_version":"c2","data":{"shard":0}}`),
		[]byte(`{"wire_version":"c2","error":{"code":"solver_failed","message":"singular"}}`),
		[]byte(`{"wire_version":"c1","data":{"shard":0}}`),
		[]byte(`{"wire_version":"c2","data":{"shard":0,"path_sets":[[1e40]]}}`),
		[]byte(`not json`),
		nil,
	} {
		f.Add(seed)
	}

	var body atomic.Pointer[[]byte]
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(*body.Load())
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
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	h := c.owner[0]
	// In-process round trips: no sockets or connection-pool goroutines,
	// whose varying coverage would make every input look new.
	h.client.hc = &http.Client{Transport: recorderTransport{stub}}

	f.Fuzz(func(t *testing.T, raw []byte) {
		body.Store(&raw)
		h.mu.Lock()
		h.state = stateHealthy // a refused block latched it out
		h.mu.Unlock()
		sol, err := c.SolveShard(context.Background(), 0, nil)
		if err != nil {
			if !errors.Is(err, server.ErrShardUnavailable) {
				t.Fatalf("SolveShard error %v does not wrap ErrShardUnavailable", err)
			}
			return
		}
		for i, sub := range sol.Res.Subsets {
			if sub.Links.Len() != top.NumLinks() || sub.CorrSet < 0 || sub.CorrSet >= len(top.CorrSets) {
				t.Fatalf("subset %d: %d-link universe, correlation set %d", i, sub.Links.Len(), sub.CorrSet)
			}
		}
		for i, ps := range sol.Res.PathSets {
			if ps.Len() != top.NumPaths() {
				t.Fatalf("path set %d over a %d-path universe, want %d", i, ps.Len(), top.NumPaths())
			}
		}
	})
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitset"
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

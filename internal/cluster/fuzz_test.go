package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/wal"
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
// assigned worker reset to sequence 0. When reframe is set, the body's
// length prefix and checksum are rewritten to fit its payload first:
// a random edit almost never keeps them right, and the mutator would
// otherwise never get past the checksum. It never panics and always
// answers with an envelope; a body that is not exactly one WAL record
// over the path universe is refused as bad_request with the sequence
// unchanged; an accepted body re-encodes to the same bytes, and its
// batch round-trips — the window's rows are the record's intervals
// masked to the worker's shard, the smallest one, so the mask drops
// most paths.
func FuzzWorkerIngest(f *testing.F) {
	top := shardedTopology(f)
	const window = 8
	numPaths := top.NumPaths()
	all := bitset.New(numPaths)
	for p := 0; p < numPaths; p++ {
		all.Add(p)
	}
	small := func() []byte {
		return wal.AppendRecord(nil, 0, []*bitset.Set{bitset.FromIndices(numPaths, 0, 1), bitset.FromIndices(numPaths, 2), bitset.New(0)})
	}
	badCRC := small()
	badCRC[len(badCRC)-1] ^= 1
	overrun := small() // the last interval claims 1000 paths
	binary.LittleEndian.PutUint32(overrun[len(overrun)-4:], 1000)
	descending := small() // first interval lists 1, 1
	binary.LittleEndian.PutUint32(descending[24:], 1)
	for _, seed := range []struct {
		body    []byte
		reframe bool
	}{
		{wal.AppendRecord(nil, 0, append(randomIntervals(top, 3, 1), all)), false},
		{small(), false},
		{wal.AppendRecord(nil, 0, []*bitset.Set{bitset.FromIndices(numPaths+1, 0, numPaths)}), false},
		{wal.AppendRecord(nil, 7, []*bitset.Set{bitset.FromIndices(numPaths, 1)}), false},
		{badCRC, false},
		{overrun, true},
		{descending, true},
		{append(small(), 0), false},
		{append(small(), 0, 0, 0, 0), true},
		{[]byte(`{"base_seq":0,"intervals":[[0,1],[2],[]]}`), false},
		{nil, false},
	} {
		f.Add(seed.body, seed.reframe)
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

	f.Fuzz(func(t *testing.T, body []byte, reframe bool) {
		if reframe && len(body) >= 8 {
			body = bytes.Clone(body)
			binary.LittleEndian.PutUint32(body, uint32(len(body)-8))
			binary.LittleEndian.PutUint32(body[4:], crc32.Checksum(body[8:], crc32.MakeTable(crc32.Castagnoli)))
		}
		if code, env := serveWire(t, h, http.MethodPost, "/c1/reset", []byte(`{"seq":0}`)); code != http.StatusOK {
			t.Fatalf("reset answered HTTP %d: %+v", code, env.Error)
		}
		code, env := serveWire(t, h, http.MethodPost, "/c1/ingest", body)
		wk.mu.Lock()
		win := wk.win.Clone()
		wk.mu.Unlock()

		// The oracle parses the body the way the worker does.
		base, batch, perr := wal.ParseRecord(body, numPaths)
		wantCode := ""
		if perr != nil {
			wantCode = CodeBadRequest
		} else if base > 0 {
			wantCode = CodeSeqGap
		}
		if perr == nil {
			if again := wal.AppendRecord(nil, base, batch); !bytes.Equal(again, body) {
				t.Fatalf("accepted record re-encodes to %x, want %x", again, body)
			}
			for i, set := range batch {
				if set.Len() > numPaths {
					t.Fatalf("interval %d decoded over a %d-path universe, want at most %d", i, set.Len(), numPaths)
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
		n := len(batch)
		if win.Seq() != uint64(n) || win.T() != min(n, window) {
			t.Fatalf("accepted %d intervals: seq %d T %d", n, win.Seq(), win.T())
		}
		for i := 0; i < win.T(); i++ {
			want := batch[n-win.T()+i].Clone()
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
// arbitrary bodies from an httptest stub worker, at 200 or, when ok is
// false, at 500. SolveShard never panics: it returns a block whose sets
// all lie inside their universes, whose subsets name correlation sets
// of the topology, and whose re-encoding is the body it came from — or
// an error wrapping server.ErrShardUnavailable.
//
// It is also a differential test of ResultDecoder's fast path: when raw
// is a valid block, a fresh decoder decodes next after it, and
// ParseShardResult decodes next alone. Both refuse next, or both accept
// it and re-encode to next. The seeds pair the valid block with edits
// of it, each at a structural or a per-epoch field.
func FuzzShardResult(f *testing.F) {
	top := shardedTopology(f)
	sv, err := estimator.NewShardedSolver(top, testSolverOpts()...)
	if err != nil {
		f.Fatal(err)
	}
	rec := randomWindow(top, 200, 7)
	res, info, err := sv.SolveShard(context.Background(), 0, rec)
	if err != nil {
		f.Fatal(err)
	}
	multi := slices.IndexFunc(res.Subsets, func(s core.SubsetResult) bool { return s.Links.Count() >= 2 })
	if len(res.Subsets) < 2 || len(res.PathSets) < 2 || multi < 0 {
		f.Fatal("shard 0 solved to a block of fewer than two subsets or path sets, or with no subset of two links")
	}
	block := func(edit func(*ShardResultResponse)) []byte {
		// Two of each keep the seeds small: on inputs the size of the
		// whole block the mutator barely advances. The first subset has
		// two links or more, which the patched seeds below rely on.
		subsets := []core.SubsetResult{res.Subsets[multi], res.Subsets[(multi+1)%len(res.Subsets)]}
		pathSets := slices.Clone(res.PathSets[:2])
		resp := &ShardResultResponse{
			SeqHigh: 200, T: rec.T(), Tier: info.Tier,
			BuildNs: info.BuildTime.Nanoseconds(), RepairNs: info.RepairTime.Nanoseconds(), SolveNs: info.SolveTime.Nanoseconds(),
			Result: core.NewShardResult(subsets, pathSets, res.Rank, res.Nullity, res.ClampedRows),
		}
		edit(resp)
		return resp.AppendTo(nil)
	}
	// patch overwrites the u32 at off of a valid block.
	patch := func(off int, v uint32) []byte {
		b := block(func(*ShardResultResponse) {})
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	const sub0 = resultHeaderSize // subset 0: corr_set, identifiable, good_prob, link count, links
	valid := block(func(*ShardResultResponse) {})
	badIdent := block(func(*ShardResultResponse) {})
	badIdent[sub0+4] = 2
	badVersion := block(func(*ShardResultResponse) {})
	badVersion[4] = 2
	badTier := block(func(*ShardResultResponse) {})
	badTier[5] = 1 << 4
	firstLink := binary.LittleEndian.Uint32(valid[sub0+17:])
	// The seeds of the differential: next after valid.
	for _, next := range [][]byte{
		block(func(r *ShardResultResponse) {
			r.SeqHigh++
			r.Subsets[0].GoodProb, r.Subsets[1].GoodProb = 0.5, 0.25
		}),
		block(func(r *ShardResultResponse) { // one link index swapped for one outside the subset
			links := r.Subsets[0].Links.Clone()
			links.Remove(int(firstLink))
			for l := 0; l < top.NumLinks(); l++ {
				if !r.Subsets[0].Links.Contains(l) {
					links.Add(l)
					break
				}
			}
			r.Subsets[0].Links = links
		}),
		patch(sub0, uint32(res.Subsets[multi].CorrSet+1)%uint32(len(top.CorrSets))),
		badIdent,
		patch(6, 1),
		valid[:len(valid)-1],
		append(slices.Clone(valid), 0),
	} {
		f.Add(true, valid, next)
	}
	for _, seed := range []struct {
		ok   bool
		body []byte
	}{
		{true, valid},
		{true, block(func(r *ShardResultResponse) { r.Subsets[0].GoodProb = math.NaN() })},
		{true, patch(sub0+17, math.MaxUint32)},
		{true, block(func(r *ShardResultResponse) {
			r.Subsets[0].Links = bitset.FromIndices(top.NumLinks()+1, top.NumLinks())
		})},
		{true, block(func(r *ShardResultResponse) { r.Subsets[0].Links = bitset.FromIndices(1<<20+1, 1<<20) })},
		{true, block(func(r *ShardResultResponse) { r.PathSets[0] = bitset.FromIndices(top.NumPaths()+1, top.NumPaths()) })},
		{true, patch(sub0, math.MaxUint32)},
		{true, patch(sub0, uint32(len(top.CorrSets)))},
		{true, patch(6, 1)},
		{true, patch(58, math.MaxUint32)},
		{true, patch(sub0+13, math.MaxUint32)},
		{true, patch(sub0+21, firstLink)},
		{true, badIdent},
		{true, badVersion},
		{true, badTier},
		{true, append(slices.Clone(valid), 0)},
		{true, valid[:len(valid)-1]},
		{true, []byte(`{"wire_version":"c2","data":{"shard":0}}`)},
		{false, []byte(`{"wire_version":"c3","error":{"code":"solver_failed","message":"singular"}}`)},
		{false, []byte(`{"wire_version":"c2","error":{"code":"solver_failed","message":"singular"}}`)},
		{false, []byte(`not json`)},
		{true, nil},
	} {
		f.Add(seed.ok, seed.body, []byte(nil))
	}

	type answer struct {
		ok   bool
		body []byte
	}
	var current atomic.Pointer[answer]
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := current.Load()
		if a.ok {
			writeBlock(w, a.body)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write(a.body)
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

	f.Fuzz(func(t *testing.T, ok bool, raw, next []byte) {
		d := NewResultDecoder(top)
		if _, err := d.Decode(raw); err == nil {
			got, gerr := d.Decode(next)
			want, werr := ParseShardResult(next, top)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("after a valid block, Decode error %v, ParseShardResult error %v", gerr, werr)
			}
			if gerr == nil {
				if g, w := got.AppendTo(nil), want.AppendTo(nil); !bytes.Equal(g, next) || !bytes.Equal(w, next) {
					t.Fatalf("Decode re-encodes to %x, ParseShardResult to %x, want %x", g, w, next)
				}
			}
		}

		current.Store(&answer{ok, raw})
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
		again := (&ShardResultResponse{
			SeqHigh: sol.SeqHigh, T: sol.T, Tier: sol.Info.Tier,
			BuildNs: sol.Info.BuildTime.Nanoseconds(), RepairNs: sol.Info.RepairTime.Nanoseconds(), SolveNs: sol.Info.SolveTime.Nanoseconds(),
			Result: sol.Res,
		}).AppendTo(nil)
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted block re-encodes to %x, want %x", again, raw)
		}
	})
}

// FuzzWorkerAssign posts arbitrary POST /c1/assign bodies to a fresh
// worker. It never panics and always answers with an envelope, and it
// accepts a body only when the body decodes to an assignment for this
// topology, with a window in (0, server.MaxWindowSize] and every shard
// in range and listed once — which then becomes the worker's live
// placement. The seeds are one valid body and one for each refusal.
func FuzzWorkerAssign(f *testing.F) {
	top := shardedTopology(f)
	const id = "w0"
	fp := Fingerprint(top)
	numShards := topology.NewPartition(top).NumShards()
	body := func(edit func(*AssignRequest)) []byte {
		req := testAssignRequest(top, []int{0, 1}, 8)
		edit(req)
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	for _, seed := range [][]byte{
		body(func(*AssignRequest) {}),
		[]byte(`{"topology_fingerprint":`),
		body(func(r *AssignRequest) { r.Fingerprint = "x" + r.Fingerprint[1:] }),
		body(func(r *AssignRequest) { r.WindowSize = 0 }),
		body(func(r *AssignRequest) { r.WindowSize = -8 }),
		body(func(r *AssignRequest) { r.WindowSize = 1 << 40 }),
		body(func(r *AssignRequest) { r.WindowSize = server.MaxWindowSize + 1 }),
		body(func(r *AssignRequest) { r.Shards = []int{0, numShards} }),
		body(func(r *AssignRequest) { r.Shards = []int{-1} }),
		body(func(r *AssignRequest) { r.Shards = []int{1, 1} }),
		body(func(r *AssignRequest) { r.WorkerID = "w1" }),
		body(func(r *AssignRequest) { r.Solver.MaxSubsetSize = -1 }),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		wk := NewWorker(WorkerConfig{ID: id, Topology: top, Logger: discardLogger()})
		code, env := serveWire(t, wk.Handler(), http.MethodPost, "/c1/assign", raw)
		if code/100 != 2 {
			if env.Error == nil {
				t.Fatalf("refusal HTTP %d carries no error", code)
			}
			return
		}
		// The worker decodes the first JSON value of the body, as here.
		var req AssignRequest
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
			t.Fatalf("HTTP %d for a body that does not decode: %v", code, err)
		}
		if req.Fingerprint != fp {
			t.Fatalf("HTTP %d for fingerprint %q", code, req.Fingerprint)
		}
		if req.WindowSize <= 0 || req.WindowSize > server.MaxWindowSize {
			t.Fatalf("HTTP %d for window %d", code, req.WindowSize)
		}
		seen := map[int]bool{}
		for _, k := range req.Shards {
			if k < 0 || k >= numShards || seen[k] {
				t.Fatalf("HTTP %d for shards %v over [0,%d)", code, req.Shards, numShards)
			}
			seen[k] = true
		}
		wk.mu.Lock()
		defer wk.mu.Unlock()
		if wk.win.Cap() != req.WindowSize || len(wk.shards) != len(seen) {
			t.Fatalf("accepted window %d shards %v, live window %d with %d shards", req.WindowSize, req.Shards, wk.win.Cap(), len(wk.shards))
		}
	})
}

// FuzzClientEnvelope answers one client.do RPC from an httptest stub
// with an arbitrary status in [200, 600) and an arbitrary body, asking
// for JSON data or, when blob is set, for the raw body. do never
// panics and never returns nil for a non-2xx answer; a 2xx answer
// returns a raw body unchanged; any other answer that is an envelope of
// another wire version is a wire_version *WireError.
func FuzzClientEnvelope(f *testing.F) {
	for _, seed := range []struct {
		status uint16
		body   string
		blob   bool
	}{
		{200, `{"wire_version":"c3","data":{"seq":7}}`, false},
		{200, `{"wire_version":"c3","data":"seven"}`, false},
		{200, `{"wire_version":"c2","data":{"seq":7}}`, false},
		{200, `{"wire_version":"c3"}`, false},
		{200, `TOMR` + "\x03", true},
		{409, `{"wire_version":"c3","error":{"code":"seq_gap","message":"behind","seq":4}}`, false},
		{503, `{"wire_version":"c2","error":{"code":"seq_gap","message":"behind"}}`, true},
		{404, `{"wire_version":"c3"}`, false},
		{500, `{"wire_version":"c3","data":{"seq":7}}`, true},
		{302, `null`, false},
		{500, `not json`, false},
		{400, ``, false},
	} {
		f.Add(seed.status, []byte(seed.body), seed.blob)
	}
	var current atomic.Pointer[[]byte]
	var status atomic.Int32
	c := &client{base: "http://stub", hc: &http.Client{Transport: recorderTransport{
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(int(status.Load()))
			w.Write(*current.Load())
		}),
	}}}
	f.Fuzz(func(t *testing.T, code uint16, body []byte, blob bool) {
		st := int(code)
		if st < 200 || st >= 600 {
			st = 200 + st%400
		}
		status.Store(int32(st))
		current.Store(&body)
		var err error
		if blob {
			var raw []byte
			err = c.do(context.Background(), http.MethodGet, "/c1/shards/0/result", nil, &raw)
			if err == nil && st/100 == 2 && !bytes.Equal(raw, body) {
				t.Fatalf("HTTP %d: raw body %q, served %q", st, raw, body)
			}
		} else {
			var out IngestResponse
			err = c.do(context.Background(), http.MethodPost, "/c1/ingest", []byte{}, &out)
		}
		if st/100 != 2 && err == nil {
			t.Fatalf("HTTP %d answer %q returned no error", st, body)
		}
		var env envelope
		if (!blob || st/100 != 2) && json.Unmarshal(body, &env) == nil && env.WireVersion != WireVersion {
			var we *WireError
			if !errors.As(err, &we) || we.Code != CodeWireVersion {
				t.Fatalf("HTTP %d envelope of version %q: error %v, want %s", st, env.WireVersion, err, CodeWireVersion)
			}
		}
	})
}

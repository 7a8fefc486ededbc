package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one ingest
// batch share Trace (the batch's acknowledged sequence); Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// The harness has one writer connection, so at most one ingest
	// request — and inside it one fan-out — is in flight: the layers
	// below the HTTP handler take their parent from these instead of
	// from a context the public seams do not carry.
	curIngest  atomic.Int64
	curForward atomic.Int64
	curSolve   sync.Map // shard → span ID of its in-flight SolveShard
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, trace uint64) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Trace: trace})
	return len(t.spans)
}

// end closes span id, optionally renaming it and setting its trace
// (both are only known once the call has returned).
func (t *tracer) end(id int, name string, trace uint64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	if name != "" {
		sp.Name = name
	}
	if trace != 0 {
		sp.Trace = trace
	}
}

// spanStats is one span name's totals.
type spanStats struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"` // total minus the time its child spans cover
}

// stats aggregates closed spans by name. Self time is a span's
// duration minus the sum of its direct children's durations (children
// of one span never overlap here: each layer calls the next in turn,
// except the worker fan-out, whose parallel RPCs may make a fan-out's
// self time negative — it is then clamped to zero).
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.End > 0 && sp.Parent > 0 {
			children[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]*spanStats{}
	for _, sp := range t.spans {
		if sp.End == 0 {
			continue
		}
		st := out[sp.Name]
		if st == nil {
			st = &spanStats{}
			out[sp.Name] = st
		}
		dur := sp.End - sp.Start
		st.Count++
		st.TotalUs += float64(dur) / 1e3
		st.SelfUs += float64(max(dur-children[sp.ID], 0)) / 1e3
	}
	return out
}

// write stores the spans and their per-name totals as
// <dir>/trace_<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range spans { // a parent precedes its children: one pass hands the batch's seq down
		if sp := &spans[i]; sp.Trace == 0 && sp.Parent > 0 {
			sp.Trace = spans[sp.Parent-1].Trace
		}
	}
	doc := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		ByName   map[string]*spanStats `json:"by_name"`
		Spans    []span                `json:"spans"`
	}{workload, seed, t.stats(), spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}

// tracedHandler records one span per request, named by the route the
// mux dispatched to. seq reports the ingest sequence after the request
// (the batch's acknowledged seq for a POST, single writer).
func tracedHandler(t *tracer, prefix string, seq func() uint64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := 0
		ingest := r.Method == http.MethodPost && r.URL.Path == "/v1/observations"
		switch {
		case strings.HasPrefix(r.URL.Path, "/c1/ingest"):
			parent = int(t.curForward.Load())
		case strings.HasSuffix(r.URL.Path, "/result"): // /c1/shards/<k>/result
			if parts := strings.Split(r.URL.Path, "/"); len(parts) == 5 {
				if id, ok := t.curSolve.Load(parts[3]); ok {
					parent = id.(int)
				}
			}
		}
		id := t.begin(prefix+r.Method+" "+r.URL.Path, parent, 0)
		if ingest {
			t.curIngest.Store(int64(id))
		}
		next.ServeHTTP(w, r)
		if ingest {
			t.curIngest.Store(0)
		}
		name := ""
		if r.Pattern != "" {
			name = prefix + r.Pattern
		}
		var trace uint64
		if ingest && seq != nil {
			trace = seq()
		}
		t.end(id, name, trace)
	})
}

// tracedFS wraps the WAL's filesystem: every Write and Sync of a
// segment file is a span. Writes happen inside the ingest request and
// are its children; with -wal-fsync interval the syncs run on the
// WAL's own goroutine and are roots.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.t}, nil
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	id := f.t.begin("wal.write", int(f.t.curIngest.Load()), 0)
	n, err := f.File.Write(p)
	f.t.end(id, "", 0)
	return n, err
}

func (f tracedFile) Sync() error {
	id := f.t.begin("wal.sync", 0, 0)
	err := f.File.Sync()
	f.t.end(id, "", 0)
	return err
}

// tracedCoordinator decorates the cluster backend at the
// server.ShardBackend seam. Embedding the concrete coordinator keeps
// its whole method set — BatchForwarder, BackendLifecycle,
// ClusterReporter, and no ShardBatchSolver — so the server
// type-asserts exactly what it would on the undecorated backend.
type tracedCoordinator struct {
	*cluster.Coordinator
	t *tracer
}

func (c tracedCoordinator) Forward(baseSeq uint64, batch []*bitset.Set) error {
	id := c.t.begin("backend.forward", int(c.t.curIngest.Load()), baseSeq+uint64(len(batch)))
	c.t.curForward.Store(int64(id))
	err := c.Coordinator.Forward(baseSeq, batch)
	c.t.curForward.Store(0)
	c.t.end(id, "", 0)
	return err
}

func (c tracedCoordinator) SolveShard(ctx context.Context, shard int, ring *stream.Window) (server.ShardSolve, error) {
	id := c.t.begin("backend.solve_shard", 0, 0)
	key := fmt.Sprint(shard)
	c.t.curSolve.Store(key, id)
	sol, err := c.Coordinator.SolveShard(ctx, shard, ring)
	c.t.curSolve.Delete(key)
	c.t.end(id, "", sol.SeqHigh)
	return sol, err
}

func (c tracedCoordinator) Merge(results []*core.Result, obs observe.Store) *estimator.Estimate {
	var trace uint64
	if s, ok := obs.(interface{ Seq() uint64 }); ok {
		trace = s.Seq()
	}
	id := c.t.begin("backend.merge", 0, trace)
	est := c.Coordinator.Merge(results, obs)
	c.t.end(id, "", 0)
	return est
}

// host is a workload's daemon configuration run inside the harness
// process through the public constructors, still served over loopback
// HTTP, with the tracing decorators in place.
type host struct {
	srv     *server.Server
	workers []*cluster.Worker
	https   []*http.Server
	walDir  string
	target  target
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

// serve starts one of the host's HTTP servers on a free loopback port
// and returns its base URL.
func (h *host) serve(handler http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(l) // returns once hs is shut down
	h.https = append(h.https, hs)
	return "http://" + l.Addr().String(), nil
}

// startHost boots the workload's configuration in-process.
func startHost(ld *load, t *tracer, dir string) (*host, error) {
	s := ld.spec
	h := &host{}
	cfg := server.Config{
		WindowSize:     s.window,
		RecomputeEvery: s.recompute,
		Algo:           s.algo,
		EpochEvery:     s.epochEvery,
		SolverOpts:     solverOpts(),
		Logger:         quietLogger(),
	}
	if s.wal {
		h.walDir = filepath.Join(dir, "wal")
		cfg.WAL = wal.Options{Dir: h.walDir, Policy: wal.SyncInterval, FS: tracedFS{wal.OSFS{}, t}}
	}
	if s.cluster {
		var specs []cluster.WorkerSpec
		for i := 0; i < 2; i++ {
			wk := cluster.NewWorker(cluster.WorkerConfig{Topology: ld.top, Logger: quietLogger()})
			h.workers = append(h.workers, wk)
			addr, err := h.serve(tracedHandler(t, "worker ", nil, wk.Handler()))
			if err != nil {
				h.close()
				return nil, err
			}
			specs = append(specs, cluster.WorkerSpec{Addr: addr})
			h.target.workers = append(h.target.workers, addr)
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Topology:   ld.top,
			Workers:    specs,
			WindowSize: s.window,
			SolverOpts: cfg.SolverOpts,
			Logger:     cfg.Logger,
		})
		if err != nil {
			h.close()
			return nil, err
		}
		cfg.Backend = tracedCoordinator{coord, t}
	}
	srv, err := server.New(ld.top, cfg)
	if err != nil {
		h.close()
		return nil, err
	}
	h.srv = srv
	srv.Start()
	addr, err := h.serve(tracedHandler(t, "", srv.Seq, srv.Handler()))
	if err != nil {
		h.close()
		return nil, err
	}
	h.target.public = addr
	return h, nil
}

// close shuts the listeners down, then the server (which stops the
// backend and flushes the WAL), then the workers.
func (h *host) close() {
	for _, hs := range h.https {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		hs.Shutdown(ctx)
		cancel()
	}
	if h.srv != nil {
		h.srv.Close()
	}
	for _, wk := range h.workers {
		wk.Close()
	}
}

// overheadPct is how much slower the traced figure is than the
// untraced one, in percent of the untraced one.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// runTraced is the separate traced run: the same configuration hosted
// in-process with the decorators above, driven for a third of the
// untraced window, then the layer-call pass. It adds the span metrics
// to r and writes trace_<workload>.json; it never touches r's
// end-to-end numbers.
func runTraced(e *env, s spec, o options, r *report) error {
	seconds := max(o.seconds/3, 1)
	ld, err := generate(s, o.seed, seconds)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(e.scratch, "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(e.scratch, "tmp"), "trace-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t := newTracer()
	h, err := startHost(ld, t, dir)
	if err != nil {
		return fmt.Errorf("%s: traced host: %w", s.name, err)
	}
	defer h.close() // a second close is harmless
	wr, rd, _, _, err := warmUp(ld, h.target.public, time.Now())
	if err != nil {
		return fmt.Errorf("%s: traced host: %w", s.name, err)
	}
	defer wr.close()
	defer rd.close()
	w, err := measure(ld, h.target, wr, rd)
	if err != nil {
		return fmt.Errorf("%s: traced run: %w", s.name, err)
	}
	checks, problems, err := verify(ld, rd, len(ld.due))
	if err != nil {
		return fmt.Errorf("%s: traced run output check: %w", s.name, err)
	}
	r.ops += w.batches + w.probes + checks
	r.failed += w.failed + len(problems)
	if w.firstErr != "" {
		r.problems = append(r.problems, "traced: "+w.firstErr)
	}
	for _, p := range problems {
		r.problems = append(r.problems, "traced: "+p)
	}
	h.close() // the WAL is flushed and closed: its directory can be recovered below

	path, err := t.write(o.outDir, s.name, o.seed)
	if err != nil {
		return fmt.Errorf("%s: writing trace: %w", s.name, err)
	}
	fmt.Printf("# %s trace: %d spans in %s\n", s.name, len(t.spans), path)

	st := t.stats()
	per := func(name string, div float64) float64 {
		if s := st[name]; s != nil && div > 0 {
			return s.TotalUs / div
		}
		return 0
	}
	count := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.Count)
		}
		return 0
	}
	self := func(name string) float64 {
		if s := st[name]; s != nil && s.Count > 0 {
			return s.SelfUs / float64(s.Count)
		}
		return 0
	}
	const post, link = "POST /v1/observations", "GET /v1/links/{id}"
	r.addLayer("span.count", float64(len(t.spans)), "count")
	r.addLayer("span.post_us", per(post, count(post)), "us")
	r.addLayer("span.post_self_us", self(post), "us")
	r.addLayer("span.query_us", per(link, count(link)), "us")
	r.addLayer("span.forward_us", per("backend.forward", count("backend.forward")), "us")
	r.addLayer("span.forward_self_us", self("backend.forward"), "us")
	r.addLayer("span.solve_shard_us", per("backend.solve_shard", count("backend.solve_shard")), "us")
	r.addLayer("span.merge_us", per("backend.merge", count("backend.merge")), "us")
	r.addLayer("span.worker_ingest_us", per("worker POST /c1/ingest", count("worker POST /c1/ingest")), "us")
	r.addLayer("span.worker_result_us", per("worker GET /c1/shards/{shard}/result", count("worker GET /c1/shards/{shard}/result")), "us")
	r.addLayer("wal.write_us_per_batch", per("wal.write", count(post)), "us")
	r.addLayer("wal.sync_us", per("wal.sync", count("wal.sync")), "us")

	// The same two medians, measured the same way, from the traced and
	// the untraced run.
	fresh50, ingest50 := percentile(w.freshMs, 50), percentile(w.ingestMs, 50)
	r.addLayer("trace.freshness_ms_p50", fresh50, "ms")
	r.addLayer("trace.ingest_ms_p50", ingest50, "ms")
	r.addLayer("trace.overhead_pct.freshness_p50", overheadPct(fresh50, r.get("freshness_ms_p50")), "%")
	r.addLayer("trace.overhead_pct.ingest_p50", overheadPct(ingest50, r.get("ingest_ms_p50")), "%")

	return layerPass(ld, h.walDir, r)
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wal"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// ID is the worker's identity. Empty means adopt the ID the
	// coordinator sends with the first assignment; set it explicitly
	// (-worker-id) to make the coordinator's placement fail loudly when
	// it reaches the wrong process.
	ID string

	// Topology is the monitored topology; its fingerprint must match
	// the coordinator's or every RPC is rejected.
	Topology *topology.Topology

	// WALDir enables per-shard durable ingest: shard k logs under
	// WALDir/shard-<k>, so multiple shards on one worker never
	// interleave segment files. Empty disables durability.
	WALDir string

	// Logger receives the worker's structured log events; nil means
	// slog.Default().
	Logger *slog.Logger
}

// workerShard is one assigned shard's state: its ring (the shard's
// masked rows only), its WAL, and its solve serialization + response
// cache. The ring pointer and its contents are guarded by the worker's
// mu; solveMu serializes solves per shard and guards the cache.
type workerShard struct {
	shard int
	mask  *bitset.Set // shard's path universe; nil when the partition is degenerate
	ring  *stream.Window
	wal   *wal.WAL

	solveMu   sync.Mutex
	cached    *ShardResultResponse
	cachedSeq uint64
	solvedYet bool
}

// Worker owns a set of partition shards on behalf of a coordinator: it
// ingests their masked interval rows (durably, when a WAL directory is
// configured), solves each shard's block on demand with warm structural
// plans, and serves the internal /c1/* API.
type Worker struct {
	top    *topology.Topology
	part   *topology.Partition
	fp     string
	cfg    WorkerConfig
	logger *slog.Logger

	// mu guards the assignment (id, window, settings, solver, shards)
	// and every ring mutation; result reads clone their ring under it.
	// Lock order: mu before a shard's solveMu, never the reverse.
	mu       sync.Mutex
	id       string
	window   int
	settings estimator.Settings
	solver   *estimator.ShardedSolver
	shards   map[int]*workerShard
	order    []int // assigned shard IDs, ascending
}

// NewWorker builds an unassigned worker; placement arrives via
// POST /c1/assign.
func NewWorker(cfg WorkerConfig) *Worker {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Worker{
		top:    cfg.Topology,
		part:   topology.NewPartition(cfg.Topology),
		fp:     Fingerprint(cfg.Topology),
		cfg:    cfg,
		logger: logger,
		id:     cfg.ID,
	}
}

// Close releases the per-shard WALs (flushing their tails). The worker
// must no longer be serving.
func (wk *Worker) Close() {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	for _, ws := range wk.shards {
		if ws.wal != nil {
			ws.wal.Close()
			ws.wal = nil
		}
	}
}

// Handler returns the worker's internal API.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /c1/assign", wk.handleAssign)
	mux.HandleFunc("POST /c1/ingest", wk.handleIngest)
	mux.HandleFunc("POST /c1/shards/{shard}/ingest", wk.handleShardIngest)
	mux.HandleFunc("POST /c1/shards/{shard}/reset", wk.handleReset)
	mux.HandleFunc("GET /c1/shards/{shard}/result", wk.handleResult)
	mux.HandleFunc("GET /c1/status", wk.handleStatus)
	mux.HandleFunc("GET /c1/healthz", wk.handleHealthz)
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))
	return mux
}

// numShards is the partition's shard universe (at least 1, matching
// estimator.ShardedSolver).
func (wk *Worker) numShards() int {
	if n := wk.part.NumShards(); n > 1 {
		return n
	}
	return 1
}

func (wk *Worker) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeWire(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (wk *Worker) handleStatus(w http.ResponseWriter, r *http.Request) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	resp := WorkerStatusResponse{
		WorkerID:    wk.id,
		Fingerprint: wk.fp,
		WindowSize:  wk.window,
		Shards:      wk.shardSeqsLocked(),
	}
	writeWire(w, http.StatusOK, resp)
}

// shardSeqsLocked flattens the per-shard sequences, ascending by shard;
// the caller holds mu.
func (wk *Worker) shardSeqsLocked() []ShardSeq {
	out := make([]ShardSeq, 0, len(wk.order))
	for _, k := range wk.order {
		out = append(out, ShardSeq{Shard: k, Seq: wk.shards[k].ring.Seq()})
	}
	return out
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRPCBody))
	if err := dec.Decode(v); err != nil {
		writeWireError(w, http.StatusBadRequest,
			&WireError{Code: CodeBadRequest, Message: fmt.Sprintf("decoding body: %v", err)})
		return false
	}
	return true
}

func (wk *Worker) handleAssign(w http.ResponseWriter, r *http.Request) {
	var req AssignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Fingerprint != wk.fp {
		writeWireError(w, http.StatusConflict, &WireError{Code: CodeTopologyMismatch,
			Message: fmt.Sprintf("coordinator fingerprint %.12s… does not match worker %.12s…", req.Fingerprint, wk.fp)})
		return
	}
	if req.WindowSize <= 0 {
		writeWireError(w, http.StatusBadRequest, &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("window size %d must be positive", req.WindowSize)})
		return
	}
	numShards := wk.numShards()
	seen := map[int]bool{}
	for _, k := range req.Shards {
		if k < 0 || k >= numShards || seen[k] {
			writeWireError(w, http.StatusBadRequest, &WireError{Code: CodeBadRequest,
				Message: fmt.Sprintf("shard %d invalid or repeated (universe [0,%d))", k, numShards)})
			return
		}
		seen[k] = true
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.id == "" {
		wk.id = req.WorkerID
	} else if req.WorkerID != wk.id {
		writeWireError(w, http.StatusConflict, &WireError{Code: CodeAssignmentChanged,
			Message: fmt.Sprintf("this worker is %q, not %q", wk.id, req.WorkerID)})
		return
	}
	if wk.solver != nil {
		// Re-assign: idempotent when nothing changed (the common rejoin
		// handshake); anything else needs a worker restart, which
		// clears in-memory state and re-places cleanly.
		if wk.window == req.WindowSize && wk.settings == req.Solver && wk.sameShardsLocked(req.Shards) {
			writeWire(w, http.StatusOK, AssignResponse{WorkerID: wk.id, Shards: wk.shardSeqsLocked()})
			return
		}
		writeWireError(w, http.StatusConflict, &WireError{Code: CodeAssignmentChanged,
			Message: "assignment conflicts with live state; restart the worker to re-place"})
		return
	}
	sv, err := estimator.NewShardedSolver(wk.top, settingsOptions(req.Solver)...)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("solver settings: %v", err)})
		return
	}
	shards := make(map[int]*workerShard, len(req.Shards))
	order := append([]int(nil), req.Shards...)
	sort.Ints(order)
	for _, k := range order {
		ws := &workerShard{
			shard: k,
			ring:  stream.NewWindow(wk.top.NumPaths(), req.WindowSize),
		}
		if wk.part.NumShards() > 1 {
			ws.mask = wk.part.ShardPaths(k)
		}
		if wk.cfg.WALDir != "" {
			if err := wk.openShardWAL(ws, req.WindowSize, 0); err != nil {
				for _, prev := range shards {
					if prev.wal != nil {
						prev.wal.Close()
					}
				}
				writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeWALUnavailable,
					Message: fmt.Sprintf("shard %d WAL: %v", k, err)})
				return
			}
		}
		shards[k] = ws
	}
	wk.window = req.WindowSize
	wk.settings = req.Solver
	wk.solver = sv
	wk.shards = shards
	wk.order = order
	metricWorkerShards.Set(int64(len(order)))
	wk.logger.Info("assignment accepted",
		"worker", wk.id, "shards", order, "window", wk.window)
	writeWire(w, http.StatusOK, AssignResponse{WorkerID: wk.id, Shards: wk.shardSeqsLocked()})
}

// sameShardsLocked reports whether the request's shard set equals the
// live assignment; the caller holds mu.
func (wk *Worker) sameShardsLocked(reqShards []int) bool {
	if len(reqShards) != len(wk.order) {
		return false
	}
	for _, k := range reqShards {
		if _, ok := wk.shards[k]; !ok {
			return false
		}
	}
	return true
}

// openShardWAL opens (or recovers) shard ws's log under
// WALDir/shard-<k> and rebuilds the ring from it, mirroring the
// standalone server's recovery: fast-forward to the log's first
// retained sequence, replay through the raw Add path, then attach the
// log so subsequent ingest logs before applying. initialSeq re-bases an
// empty log after a reset.
func (wk *Worker) openShardWAL(ws *workerShard, window int, initialSeq uint64) error {
	w, err := wal.Open(wal.Options{
		Dir:        filepath.Join(wk.cfg.WALDir, fmt.Sprintf("shard-%d", ws.shard)),
		Horizon:    window,
		InitialSeq: initialSeq,
	})
	if err != nil {
		return err
	}
	rec := w.Recovered()
	if rec.Records > 0 {
		ws.ring.ResetSeq(rec.FirstSeq)
		if err := w.Replay(func(_ uint64, batch []*bitset.Set) error {
			for _, obs := range batch {
				ws.ring.Add(obs)
			}
			return nil
		}); err != nil {
			w.Close()
			return fmt.Errorf("replaying: %w", err)
		}
	}
	ws.ring.SetLog(w)
	ws.wal = w
	wk.logger.Info("shard wal recovered",
		"shard", ws.shard,
		"records", rec.Records,
		"first_seq", rec.FirstSeq,
		"last_seq", rec.LastSeq,
		"truncated_bytes", rec.TruncatedBytes)
	return nil
}

// decodeIntervals validates and converts wire intervals to path sets,
// masked to the shard's universe when mask is non-nil.
func (wk *Worker) decodeIntervals(intervals [][]int, mask *bitset.Set) ([]*bitset.Set, error) {
	numPaths := wk.top.NumPaths()
	batch := make([]*bitset.Set, len(intervals))
	for i, iv := range intervals {
		set := bitset.New(numPaths)
		for _, p := range iv {
			if p < 0 || p >= numPaths {
				return nil, fmt.Errorf("interval %d: path %d outside universe [0,%d)", i, p, numPaths)
			}
			set.Add(p)
		}
		if mask != nil {
			set.IntersectWith(mask)
		}
		batch[i] = set
	}
	return batch, nil
}

// applyToShard applies the request's suffix this shard has not yet
// seen: rows below the shard's sequence were applied by an earlier
// delivery of the same batch and are skipped, which is what makes
// coordinator retries after a partial fan-out failure safe. The caller
// holds mu and has already ruled out a gap.
func (wk *Worker) applyToShard(ws *workerShard, req *IngestRequest) error {
	seq := ws.ring.Seq()
	skip := int(seq - req.BaseSeq)
	if skip >= len(req.Intervals) {
		return nil // entire batch already applied
	}
	batch, err := wk.decodeIntervals(req.Intervals[skip:], ws.mask)
	if err != nil {
		return &WireError{Code: CodeBadRequest, Message: err.Error()}
	}
	if _, err := ws.ring.AddBatch(batch); err != nil {
		return &WireError{Code: CodeWALUnavailable,
			Message: fmt.Sprintf("shard %d: %v", ws.shard, err)}
	}
	metricWorkerIngested.Add(uint64(len(batch)))
	return nil
}

// writeIngestError maps an applyToShard failure.
func (wk *Worker) writeIngestError(w http.ResponseWriter, err error) {
	we, ok := err.(*WireError)
	if !ok {
		we = &WireError{Code: CodeBadRequest, Message: err.Error()}
	}
	status := http.StatusBadRequest
	if we.Code == CodeWALUnavailable {
		status = http.StatusServiceUnavailable
	}
	writeWireError(w, status, we)
}

func (wk *Worker) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.solver == nil {
		writeWireError(w, http.StatusConflict, &WireError{Code: CodeNotAssigned,
			Message: "no assignment; POST /c1/assign first"})
		return
	}
	// A base ahead of any shard means this worker missed batches the
	// coordinator believes delivered (or the shard lags after a rejoin):
	// refuse the whole request — partial application would break ring
	// lockstep — and report every sequence so the coordinator can plan
	// per-shard catch-up.
	for _, k := range wk.order {
		if req.BaseSeq > wk.shards[k].ring.Seq() {
			writeWireError(w, http.StatusConflict, &WireError{
				Code:    CodeSeqGap,
				Message: fmt.Sprintf("batch base %d is ahead of shard %d (seq %d)", req.BaseSeq, k, wk.shards[k].ring.Seq()),
				Shards:  wk.shardSeqsLocked(),
			})
			return
		}
	}
	for _, k := range wk.order {
		if err := wk.applyToShard(wk.shards[k], &req); err != nil {
			wk.writeIngestError(w, err)
			return
		}
	}
	writeWire(w, http.StatusOK, IngestResponse{Shards: wk.shardSeqsLocked()})
}

// shardFromPath resolves the {shard} path value to live state; the
// caller holds mu.
func (wk *Worker) shardFromPathLocked(w http.ResponseWriter, r *http.Request) *workerShard {
	k, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		writeWireError(w, http.StatusBadRequest, &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("shard %q is not an integer", r.PathValue("shard"))})
		return nil
	}
	if wk.solver == nil {
		writeWireError(w, http.StatusConflict, &WireError{Code: CodeNotAssigned,
			Message: "no assignment; POST /c1/assign first"})
		return nil
	}
	ws, ok := wk.shards[k]
	if !ok {
		writeWireError(w, http.StatusNotFound, &WireError{Code: CodeUnknownShard,
			Message: fmt.Sprintf("shard %d is not assigned to worker %q", k, wk.id)})
		return nil
	}
	return ws
}

// handleShardIngest is the per-shard catch-up path: the coordinator
// replays rows one shard missed — whole rows of its window, masked to
// the shard's paths here like any broadcast batch — without touching
// the worker's other shards, which may themselves lag at a different
// sequence.
func (wk *Worker) handleShardIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	ws := wk.shardFromPathLocked(w, r)
	if ws == nil {
		return
	}
	if req.BaseSeq > ws.ring.Seq() {
		writeWireError(w, http.StatusConflict, &WireError{
			Code:    CodeSeqGap,
			Message: fmt.Sprintf("batch base %d is ahead of shard %d (seq %d)", req.BaseSeq, ws.shard, ws.ring.Seq()),
			Shards:  []ShardSeq{{Shard: ws.shard, Seq: ws.ring.Seq()}},
		})
		return
	}
	if err := wk.applyToShard(ws, &req); err != nil {
		wk.writeIngestError(w, err)
		return
	}
	writeWire(w, http.StatusOK, IngestResponse{
		Shards: []ShardSeq{{Shard: ws.shard, Seq: ws.ring.Seq()}},
	})
}

// handleReset discards a shard's ring and WAL and fast-forwards the
// empty state to the requested base. The coordinator uses it when
// replay cannot bridge the gap: the worker's recovered sequence has
// aged out of the coordinator's retained window, or is ahead of a
// coordinator that lost unsynced tail data in a crash.
func (wk *Worker) handleReset(w http.ResponseWriter, r *http.Request) {
	var req ResetRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	ws := wk.shardFromPathLocked(w, r)
	if ws == nil {
		return
	}
	ring := stream.NewWindow(wk.top.NumPaths(), wk.window)
	if req.Seq > 0 {
		ring.ResetSeq(req.Seq)
	}
	if ws.wal != nil {
		ws.wal.Close()
		dir := filepath.Join(wk.cfg.WALDir, fmt.Sprintf("shard-%d", ws.shard))
		if err := os.RemoveAll(dir); err != nil {
			ws.wal = nil // the old log is closed either way
			writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeWALUnavailable,
				Message: fmt.Sprintf("shard %d: clearing WAL: %v", ws.shard, err)})
			return
		}
		ws.wal = nil
		prev := ws.ring
		ws.ring = ring
		if err := wk.openShardWAL(ws, wk.window, req.Seq); err != nil {
			ws.ring = prev
			writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeWALUnavailable,
				Message: fmt.Sprintf("shard %d: reopening WAL: %v", ws.shard, err)})
			return
		}
	} else {
		ws.ring = ring
	}
	// The old sequence numbering may now mean different intervals:
	// drop the solve cache.
	ws.solveMu.Lock()
	ws.cached, ws.cachedSeq, ws.solvedYet = nil, 0, false
	ws.solveMu.Unlock()
	wk.logger.Info("shard reset", "shard", ws.shard, "seq", req.Seq)
	writeWire(w, http.StatusOK, ResetResponse{Shard: ws.shard, Seq: ws.ring.Seq()})
}

// handleResult solves the shard's block over its current ring (warm
// plans make the steady state cheap) and returns it with the sequence
// it covers. Repeated polls at an unchanged sequence serve the cached
// encoding without re-solving.
func (wk *Worker) handleResult(w http.ResponseWriter, r *http.Request) {
	wk.mu.Lock()
	ws := wk.shardFromPathLocked(w, r)
	if ws == nil {
		wk.mu.Unlock()
		return
	}
	ring := ws.ring.Clone()
	solver := wk.solver
	wk.mu.Unlock()

	ws.solveMu.Lock()
	defer ws.solveMu.Unlock()
	if ws.solvedYet && ws.cachedSeq == ring.Seq() {
		writeWire(w, http.StatusOK, ws.cached)
		return
	}
	// Solve detached from the request context: a poller that times out
	// mid-solve would otherwise abort the work, and its retry would
	// start over — a livelock for solves longer than the caller's
	// timeout. Completing anyway caches the block, so the retry is an
	// instant hit.
	res, info, err := solver.SolveShard(context.Background(), ws.shard, ring)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeSolverFailed,
			Message: fmt.Sprintf("shard %d: %v", ws.shard, err)})
		return
	}
	resp := encodeResult(ws.shard, ring.Seq(), ring.T(), res, info)
	ws.cached, ws.cachedSeq, ws.solvedYet = resp, ring.Seq(), true
	metricWorkerSolves.Inc()
	writeWire(w, http.StatusOK, resp)
}

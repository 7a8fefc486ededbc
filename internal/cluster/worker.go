package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/server"
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

	// WAL enables durable ingest when WAL.Dir is set: the worker keeps
	// one log at the root of that directory, however many shards it
	// owns, beside a "shards" file naming the shard set the log was
	// written under (a different assignment discards the log). The
	// worker sets Horizon (the assigned window) and InitialSeq
	// (on reset) itself; every other option is used as given.
	WAL wal.Options

	// Logger receives the worker's structured log events; nil means
	// slog.Default().
	Logger *slog.Logger
}

// workerShard is one assigned shard's solve serialization and response
// cache; solveMu serializes the shard's solves and guards the cache.
type workerShard struct {
	solveMu   sync.Mutex
	cached    []byte // the encoded block
	cachedSeq uint64
	solvedYet bool
}

// Worker owns a set of partition shards on behalf of a coordinator: it
// ingests interval rows into one window masked to its shards' paths
// (durably, when a WAL directory is configured), solves each shard's
// columns of that window on demand with warm structural plans, and
// serves the internal /c1/* API.
type Worker struct {
	top    *topology.Topology
	part   *topology.Partition
	fp     string
	cfg    WorkerConfig
	logger *slog.Logger

	// mu guards the assignment (id, settings, solver, shards, mask),
	// the window and its log; result reads freeze the window under it.
	// Lock order: mu before a shard's solveMu, never the reverse.
	mu       sync.Mutex
	id       string
	settings estimator.Settings
	solver   *estimator.ShardedSolver
	shards   map[int]*workerShard
	mask     *bitset.Set // union of the assigned shards' paths; nil when the partition is degenerate
	win      *stream.Window
	wal      *wal.WAL
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

// Close releases the WAL (flushing its tail). The worker must no longer
// be serving.
func (wk *Worker) Close() {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.wal != nil {
		wk.wal.Close()
		wk.wal = nil
	}
}

// Handler returns the worker's internal API.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /c1/assign", wk.handleAssign)
	mux.HandleFunc("POST /c1/ingest", wk.handleIngest)
	mux.HandleFunc("POST /c1/reset", wk.handleReset)
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
	resp := WorkerStatusResponse{WorkerID: wk.id, Fingerprint: wk.fp}
	if wk.win != nil {
		resp.WindowSize, resp.Seq = wk.win.Cap(), wk.win.Seq()
	}
	writeWire(w, http.StatusOK, resp)
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
	if req.WindowSize <= 0 || req.WindowSize > server.MaxWindowSize {
		writeWireError(w, http.StatusBadRequest, &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("window size %d outside (0, %d]", req.WindowSize, server.MaxWindowSize)})
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
		if wk.win.Cap() == req.WindowSize && wk.settings == req.Solver && wk.sameShardsLocked(req.Shards) {
			writeWire(w, http.StatusOK, AssignResponse{WorkerID: wk.id, Seq: wk.win.Seq()})
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
	win := stream.NewWindow(wk.top.NumPaths(), req.WindowSize)
	var log *wal.WAL
	if wk.cfg.WAL.Dir != "" {
		if err = wk.bindWAL(req.Shards); err == nil {
			log, err = wk.restoreWAL(win, 0)
		}
		if err != nil {
			writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeWALUnavailable,
				Message: err.Error()})
			return
		}
	}
	shards := make(map[int]*workerShard, len(req.Shards))
	var mask *bitset.Set
	if wk.part.NumShards() > 1 {
		mask = bitset.New(wk.top.NumPaths())
	}
	for _, k := range req.Shards {
		shards[k] = &workerShard{}
		if mask != nil {
			mask.UnionWith(wk.part.ShardPaths(k))
		}
	}
	wk.settings = req.Solver
	wk.solver = sv
	wk.shards = shards
	wk.mask = mask
	wk.win = win
	wk.wal = log
	metricWorkerShards.Set(int64(len(shards)))
	wk.logger.Info("assignment accepted",
		"worker", wk.id, "shards", req.Shards, "window", req.WindowSize, "seq", win.Seq())
	writeWire(w, http.StatusOK, AssignResponse{WorkerID: wk.id, Seq: win.Seq()})
}

// sameShardsLocked reports whether the request's shard set equals the
// live assignment; the caller holds mu.
func (wk *Worker) sameShardsLocked(reqShards []int) bool {
	if len(reqShards) != len(wk.shards) {
		return false
	}
	for _, k := range reqShards {
		if _, ok := wk.shards[k]; !ok {
			return false
		}
	}
	return true
}

// walShardsFile names the file beside the worker's log that records
// the shard set the logged rows were masked to.
const walShardsFile = "shards"

// bindWAL ties the log in the WAL directory to the assigned shards.
// Rows are masked to the owned shards' paths before they are logged, so
// a log written under another shard set lacks columns this assignment
// solves. Such a log, or one with no record of its shard set, is
// removed: the worker then starts empty at seq 0, and the coordinator
// resets and replays it like any worker that lost its state. The
// record is synced before the first segment of a new log is written.
func (wk *Worker) bindWAL(shards []int) error {
	opts := wk.cfg.WAL
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	sorted := slices.Sorted(slices.Values(shards))
	want := strings.Trim(fmt.Sprint(sorted), "[]") + "\n"
	name := filepath.Join(opts.Dir, walShardsFile)
	if f, err := fsys.OpenFile(name, os.O_RDONLY, 0); err == nil {
		got, err := io.ReadAll(f)
		f.Close()
		if err == nil && string(got) == want {
			return nil
		}
	}
	if err := wal.Remove(opts); err != nil {
		return err
	}
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", opts.Dir, err)
	}
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("recording WAL shard set: %w", err)
	}
	_, err = io.WriteString(f, want)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("recording WAL shard set: %w", err)
	}
	return nil
}

// restoreWAL opens (or recovers) the worker's one log at the root of
// the WAL directory and rebuilds the empty win from it, retaining one
// window of intervals; initialSeq re-bases an empty log after a reset.
func (wk *Worker) restoreWAL(win *stream.Window, initialSeq uint64) (*wal.WAL, error) {
	opts := wk.cfg.WAL
	opts.Horizon = win.Cap()
	opts.InitialSeq = initialSeq
	return wal.Restore(opts, win, wk.logger)
}

// notAssignedLocked answers not_assigned before the first assignment;
// the caller holds mu.
func (wk *Worker) notAssignedLocked(w http.ResponseWriter) bool {
	if wk.solver != nil {
		return false
	}
	writeWireError(w, http.StatusConflict, &WireError{Code: CodeNotAssigned,
		Message: "no assignment; POST /c1/assign first"})
	return true
}

// handleIngest applies one batch. The body is one WAL record over the
// topology's path universe; a bad frame, checksum or index is refused
// as bad_request before anything is applied.
func (wk *Worker) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRPCBody))
	if err != nil {
		writeWireError(w, http.StatusBadRequest,
			&WireError{Code: CodeBadRequest, Message: fmt.Sprintf("reading body: %v", err)})
		return
	}
	base, batch, err := wal.ParseRecord(body, wk.top.NumPaths())
	if err != nil {
		writeWireError(w, http.StatusBadRequest,
			&WireError{Code: CodeBadRequest, Message: fmt.Sprintf("decoding ingest record: %v", err)})
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.notAssignedLocked(w) {
		return
	}
	// A base ahead of the window means this worker missed batches the
	// coordinator believes delivered (or lags after a rejoin): refuse
	// the request and report the sequence to replay from.
	seq := wk.win.Seq()
	if base > seq {
		writeWireError(w, http.StatusConflict, &WireError{
			Code:    CodeSeqGap,
			Message: fmt.Sprintf("batch base %d is ahead of the worker (seq %d)", base, seq),
			Seq:     seq,
		})
		return
	}
	// Rows below the window's sequence were applied by an earlier
	// delivery of the same batch and are skipped, which is what makes
	// coordinator retries after a partial fan-out failure safe. The
	// rest are masked to the assigned shards' paths.
	if skip := seq - base; skip < uint64(len(batch)) {
		batch = batch[skip:]
		if wk.mask != nil {
			for _, set := range batch {
				set.IntersectWith(wk.mask)
			}
		}
		if _, err := wk.win.AddBatch(batch); err != nil {
			writeWireError(w, http.StatusServiceUnavailable, &WireError{Code: CodeWALUnavailable, Message: err.Error()})
			return
		}
		metricWorkerIngested.Add(uint64(len(batch)))
	}
	writeWire(w, http.StatusOK, IngestResponse{Seq: wk.win.Seq()})
}

// handleReset discards the window and WAL, fast-forwards the empty
// state to the requested base and drops every shard's solve cache (the
// old numbering may now mean different intervals). The coordinator
// uses it when replay cannot bridge the gap: the worker's recovered
// sequence has aged out of the coordinator's retained window, or is
// ahead of a coordinator that lost unsynced tail data in a crash.
func (wk *Worker) handleReset(w http.ResponseWriter, r *http.Request) {
	var req ResetRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.notAssignedLocked(w) {
		return
	}
	win := stream.NewWindow(wk.top.NumPaths(), wk.win.Cap())
	if wk.wal == nil {
		win.ResetSeq(req.Seq)
	} else {
		wk.wal.Close()
		wk.wal = nil // the old log is closed either way
		err := wal.Remove(wk.cfg.WAL)
		if err == nil {
			wk.wal, err = wk.restoreWAL(win, req.Seq)
		}
		if err != nil {
			writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeWALUnavailable,
				Message: fmt.Sprintf("resetting WAL: %v", err)})
			return
		}
	}
	wk.win = win
	for _, ws := range wk.shards {
		ws.solveMu.Lock()
		ws.cached, ws.cachedSeq, ws.solvedYet = nil, 0, false
		ws.solveMu.Unlock()
	}
	wk.logger.Info("worker reset", "seq", req.Seq)
	writeWire(w, http.StatusOK, ResetResponse{Seq: win.Seq()})
}

// handleResult solves the shard's columns of the window (warm plans
// make the steady state cheap) and returns the block with the sequence
// it covers, as a binary block. Repeated polls at an unchanged sequence
// serve the cached encoding without re-solving.
func (wk *Worker) handleResult(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		writeWireError(w, http.StatusBadRequest, &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("shard %q is not an integer", r.PathValue("shard"))})
		return
	}
	wk.mu.Lock()
	if wk.notAssignedLocked(w) {
		wk.mu.Unlock()
		return
	}
	ws, ok := wk.shards[k]
	if !ok {
		wk.mu.Unlock()
		writeWireError(w, http.StatusNotFound, &WireError{Code: CodeUnknownShard,
			Message: fmt.Sprintf("shard %d is not assigned to worker %q", k, wk.id)})
		return
	}
	win := wk.win.Freeze()
	solver := wk.solver
	wk.mu.Unlock()

	ws.solveMu.Lock()
	defer ws.solveMu.Unlock()
	if ws.solvedYet && ws.cachedSeq == win.Seq() {
		writeBlock(w, ws.cached)
		return
	}
	// Solve detached from the request context: a poller that times out
	// mid-solve would otherwise abort the work, and its retry would
	// start over — a livelock for solves longer than the caller's
	// timeout. Completing anyway caches the block, so the retry is an
	// instant hit.
	res, info, err := solver.SolveShard(context.Background(), k, win)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError, &WireError{Code: CodeSolverFailed,
			Message: fmt.Sprintf("shard %d: %v", k, err)})
		return
	}
	block := &ShardResultResponse{
		Shard:    k,
		SeqHigh:  win.Seq(),
		T:        win.T(),
		Tier:     info.Tier,
		BuildNs:  info.BuildTime.Nanoseconds(),
		RepairNs: info.RepairTime.Nanoseconds(),
		SolveNs:  info.SolveTime.Nanoseconds(),
		Result:   res,
	}
	ws.cached, ws.cachedSeq, ws.solvedYet = block.AppendTo(nil), win.Seq(), true
	metricWorkerSolves.Inc()
	writeBlock(w, ws.cached)
}

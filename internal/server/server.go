// Package server implements the streaming tomography service: a
// sliding-window observation store fed by batched ingest, an
// epoch-versioned solver loop that recomputes the configured
// estimator's result over the live window — on a fixed cadence, or in
// cluster mode once each batch has been applied — and the
// versioned HTTP/JSON API served by cmd/tomod.
//
// Concurrency contract (see DESIGN.md):
//
//   - Ingest serializes on one mutex (mu) guarding the one live
//     stream.Window — in every mode; batches are applied atomically
//     with respect to snapshots.
//   - The solver loops freeze the window under that mutex — a
//     copy-on-write stream.Window.Freeze: O(paths + capacity) words
//     copied, every row and mask shared, once per sequence — and run
//     the estimator on the frozen clone off-lock, so a slow solve never
//     blocks ingest. Every freeze at one sequence (checkpoint, shard
//     solves, background merges) shares that one clone. A freeze writes
//     its source's ownership marks, so the mutex must exclude ingest
//     and every other freeze of the live window (it does). mu is never
//     held across an RPC: the cluster fan-out is ordered by its own
//     ingestMu, taken before mu.
//   - Each solve publishes an immutable Snapshot — the estimate, the
//     frozen window it was computed over, and a monotonically increasing
//     epoch — via an atomic pointer swap. Nothing ever adds to a
//     published window, and the live window copies before it writes
//     anything the two still share, so the snapshot never changes. Queries load the pointer once
//     and answer entirely from that snapshot, so every response is
//     internally consistent with exactly one epoch and queries never
//     block ingest or the solver.
//   - Epoch solves are cancellable: shutdown cancels the in-flight
//     solve, and a solve whose frozen window has been entirely evicted
//     by newer ingest (superseded) is abandoned rather than published.
//     Cancelled solves return ctx.Err() promptly and never publish.
//
// There is one epoch body. Every mode solves an epoch as blocks through
// the ShardBackend seam — the correlation-set shards of the paper's
// block-diagonal system (topology.Partition) in sharded mode (Algo =
// "correlation-complete-sharded"), a single block covering the whole
// universe otherwise — so Recompute, the checkpoint drain and the
// cluster's background publish share one solve, one stale-guarded
// adoption, one merge-and-publish step and one publish guard. A
// one-block epoch publishes its block's estimate as is; a sharded epoch
// merges the per-shard blocks. The window is the same one: a shard is a
// set of its columns, so each shard solve reads only its own paths of
// the frozen window — warm-starting the structural plan while its
// always-good set is stable — and a congestion burst confined to one
// shard re-derives one block's structure while the others keep
// re-solving their carried-forward factorizations; per-shard epochs and
// lag are exposed on /v1/status.
//
// The background loop is chosen by where the blocks are solved. Every
// in-process server, one-block or sharded, runs one supervised loop
// (run): each RecomputeEvery tick it calls Recompute, which drains the
// queued checkpoints and solves every block, in turn, over one frozen
// clone, so a published epoch is an offline solve of its window. Only a
// cluster coordinator (Config.Backend) runs one loop per shard
// (runShard): each sleeps until an applied ingest batch wakes it, solves
// its shard and publishes a merge of the latest blocks. Those shard
// solves are not supersession-supervised (warm solves are far faster
// than a window turnover); shutdown still cancels them.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wal"
)

// MaxWindowSize is the largest sliding-window capacity, in intervals,
// any role accepts: New, the cluster coordinator, a worker's assignment
// and tomod -window all refuse a larger one, since the window sizes its
// ring by it up front. 2^20 intervals is twelve days at one interval a
// second.
const MaxWindowSize = 1 << 20

// Config parameterizes the streaming service.
type Config struct {
	// WindowSize is the sliding-window capacity in intervals
	// (default 1000, the paper's monitoring-period length; at most
	// MaxWindowSize).
	WindowSize int

	// RecomputeEvery is the minimum spacing between two epoch starts of
	// one solver loop (default 2s). An in-process server's loop starts
	// an epoch on its tick. A cluster coordinator's shard loops have no
	// tick: they start one once Ingest has applied a batch, and a batch
	// applied sooner than RecomputeEvery after a loop's previous start
	// waits out the rest of the gap. Either way, a loop with no new
	// observations since its last epoch starts none.
	RecomputeEvery time.Duration

	// Algo selects the epoch solver from the estimator registry
	// (default estimator.CorrelationComplete). Queries may still select
	// other algorithms per request with ?algo=.
	Algo string

	// SolverOpts tunes every estimate the server computes — epoch
	// solves and per-request ?algo= runs alike. Invalid options are
	// reported by New, before the service starts.
	SolverOpts []estimator.Option

	// EpochEvery, when positive, adds interval-stride epochs to the
	// time-based cadence: ingest freezes a window checkpoint every
	// EpochEvery intervals, and the solver drains all queued
	// checkpoints on its next run — the queue through each block's
	// batched solve (ShardBatchSolver; one multi-RHS solve per block when
	// the epoch solver is correlation-complete, sharded or not) —
	// publishing one epoch per checkpoint. A burst that crosses several
	// stride boundaries therefore yields several observable epochs (see
	// /v1/epochs) instead of one coarse latest-state solve.
	//
	// Every in-process backend offers the batched seam. A Cluster does
	// not — its workers solve their own live windows, never the
	// checkpoints — so New rejects EpochEvery whenever Backend is set
	// rather than serve drained epochs whose results are unspecified.
	EpochEvery int

	// MaxEpochBacklog bounds the queued checkpoints (default 8): when
	// ingest outruns the solver past the bound, the oldest pending
	// checkpoints are dropped (counted on /v1/status) and lag degrades
	// to the latest-state semantics, exactly as without EpochEvery.
	MaxEpochBacklog int

	// WAL configures the durable ingest path. With WAL.Dir set, New
	// opens (and recovers) a write-ahead log there: every ingest batch
	// is logged before it is applied, and a restart replays the log so
	// the sliding window survives a crash instead of refilling from
	// empty. WAL.Horizon defaults to WindowSize. An empty Dir disables
	// durability (the pre-WAL behavior).
	WAL wal.Options

	// MaxIngestBytes bounds one POST /v1/observations body (default
	// 64 MiB, ~ a day of intervals on the paper-scale path universe).
	MaxIngestBytes int64

	// Backend makes the server a cluster coordinator (sharded algo only;
	// New rejects it otherwise, and with EpochEvery). nil means the
	// blocks are solved in-process by estimator.ShardedSolver. The
	// cluster forwards ingest to shard-owning workers (Forward), fetches
	// their solved blocks (SolveShard) and reports worker health
	// (ClusterStatus), while the server keeps its own window for
	// merging, observation-level queries and worker catch-up.
	Backend Cluster

	// Logger receives the service's structured log events (WAL
	// recovery, epoch publishes at debug, solver errors and panics,
	// ingest failures). nil means slog.Default().
	Logger *slog.Logger
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 1000
	}
	if c.RecomputeEvery <= 0 {
		c.RecomputeEvery = 2 * time.Second
	}
	if c.Algo == "" {
		c.Algo = estimator.CorrelationComplete
	}
	if c.MaxEpochBacklog <= 0 {
		c.MaxEpochBacklog = 8
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = maxIngestBody
	}
	return c
}

// Snapshot is one epoch of solver output. The published fields are
// immutable: Est and Window are never mutated again, so any number of
// queries may read them concurrently. Estimates for other algorithms
// over the same frozen window are computed lazily per request and
// cached on the snapshot.
type Snapshot struct {
	// Epoch increases by one per published solve; queries report it so
	// clients can correlate answers. 0 on an unpublished (cancelled)
	// snapshot.
	Epoch uint64

	// Algo is the registry name of the epoch solver.
	Algo string

	// Est is the epoch estimate over Window; nil when Err is non-nil.
	Est *estimator.Estimate

	// Window is the frozen clone of the live window the estimate was
	// computed over. In cluster mode a background publish freezes it at
	// merge time, so it may be slightly newer than the per-shard blocks
	// merged into Est; a Recompute solves every shard from this one
	// clone.
	Window *stream.Window

	// Shards describes the per-shard blocks merged into Est; nil
	// outside sharded mode.
	Shards []ShardInfo

	// SeqHigh is the sequence number of the newest interval included:
	// the window covers [SeqHigh−T, SeqHigh).
	SeqHigh uint64

	// T is the number of intervals in the window at solve time.
	T int

	// Tier is how the epoch solve used its carried-forward plan, as the
	// solver reported it: the one block's tier, zero for a stateless
	// estimator and in sharded mode (which reports the same per shard
	// in Shards).
	core.Tier

	ComputedAt  time.Time
	ComputeTime time.Duration

	// Err is the solver error, if the solve failed; ctx.Err() when the
	// solve was cancelled (shutdown or supersession), in which case the
	// snapshot was not published.
	Err error

	top  *topology.Topology
	opts []estimator.Option

	// lifetime is the server's lifetime context: per-request solves run
	// under it (not the request's context), so a slow solve outlives an
	// impatient client, completes once, and serves every later request
	// from the cache. Shutdown still aborts it.
	lifetime context.Context

	// mu guards byAlgo, the lazy per-request estimate cache. Each
	// algorithm gets its own cell so a slow solve for one algorithm
	// never blocks cache hits (or solves) for another.
	mu     sync.Mutex
	byAlgo map[string]*algoCell
}

// algoCell is one algorithm's slot in the snapshot's lazy cache. The
// solve starts once (once) and runs detached from any single request;
// done closes when est/err are final.
type algoCell struct {
	once sync.Once
	done chan struct{}
	est  *estimator.Estimate
	err  error
}

// EstimateFor returns this snapshot's estimate for the named algorithm
// ("" means the epoch solver's). Estimates for other algorithms are
// computed over the frozen window on first request and cached, so every
// algorithm answers about the same epoch. The solve itself runs under
// the server's lifetime context; the request's ctx only bounds how long
// this caller waits for it — an abandoned request does not waste the
// solve, which completes and serves the next caller from the cache.
func (s *Snapshot) EstimateFor(ctx context.Context, algo string) (*estimator.Estimate, error) {
	if algo == "" || algo == s.Algo {
		if s.Err != nil {
			return nil, s.Err
		}
		return s.Est, nil
	}
	est, err := estimator.New(algo)
	if err != nil {
		return nil, err
	}
	// A request that is already dead neither starts nor waits for a
	// solve; this also keeps the cancelled-solve error deterministic.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	cell := s.byAlgo[algo]
	if cell == nil {
		cell = &algoCell{}
		s.byAlgo[algo] = cell
	}
	s.mu.Unlock()
	cell.once.Do(func() {
		cell.done = make(chan struct{})
		go func() {
			defer close(cell.done)
			b := &oneBlockBackend{top: s.top, opts: s.opts, est: est} // stateless
			sol, err := b.SolveShard(s.lifetime, 0, s.Window)
			cell.est, cell.err = sol.Est, err
		}()
	})
	// Prefer a finished solve over a dead request context: both may be
	// ready at once and select would pick randomly.
	select {
	case <-cell.done:
		return cell.est, cell.err
	default:
	}
	select {
	case <-cell.done:
		return cell.est, cell.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ShardInfo describes one shard's contribution to a merged snapshot.
type ShardInfo struct {
	Shard int

	// Epoch is the shard's own epoch counter (blocks adopted; in
	// cluster mode each shard's loop advances its own).
	Epoch uint64

	// SeqHigh is the ingest sequence the shard's block was solved at;
	// T the live intervals of the window at that point.
	SeqHigh uint64
	T       int

	// Tier is how the shard's solve used the plan carried forward from
	// its previous epoch.
	core.Tier

	ComputeTime time.Duration

	// EpochBacklog is the shard's pending interval-stride checkpoints
	// (0 unless Config.EpochEvery is set).
	EpochBacklog int

	// Paths and Links are the shard's slice of the universe.
	Paths, Links int
}

// shardState is one block's solver state (a shard's, or the whole
// universe's outside sharded mode). mu serializes the block's solves
// (Recompute and its drain, and a cluster's shard loop); the published
// fields below it are guarded by the server's publishMu.
type shardState struct {
	mu sync.Mutex

	// epochBacklog is the block's pending interval-stride checkpoints
	// (Config.EpochEvery): set by ingest at enqueue, cleared as the
	// drain finishes the block's solves. Atomic so /v1/status reads it
	// without the ingest or publish locks.
	epochBacklog atomic.Int64

	res     *core.Result
	est     *estimator.Estimate // the one block's estimate (ShardSolve.Est)
	seqHigh uint64
	t       int
	epoch   uint64 // blocks adopted; 0 until the block's first solve
	core.Tier
	computeTime time.Duration
	err         error
}

// EpochSummary is one published epoch's record in the server's bounded
// history ring, the backing of GET /v1/epochs.
type EpochSummary struct {
	Epoch   uint64
	SeqHigh uint64
	T       int
	core.Tier
	ComputedAt  time.Time
	ComputeTime time.Duration
	Err         string
}

// Server is the streaming tomography service.
type Server struct {
	top    *topology.Topology
	cfg    Config
	logger *slog.Logger

	// shardLag holds the per-shard lag gauges, resolved once in New so
	// an adoption never pays a labeled lookup; nil outside sharded mode.
	shardLag []*telemetry.Gauge

	// backend solves every epoch's blocks: the one-block backend (which
	// carries the correlation-complete plan across epochs) outside
	// sharded mode, the in-process sharded solver or the cluster
	// coordinator inside it. cluster is the coordinator (Config.Backend),
	// nil when the blocks are solved in-process. shardStates holds one
	// published state per block; sharded reports whether the blocks are
	// shards — merged and listed in Snapshot.Shards and /v1/status.
	backend     ShardBackend
	cluster     Cluster
	shardStates []*shardState
	sharded     bool
	publishMu   sync.Mutex // guards shardStates' published fields, snapshot assembly + history

	// history is the bounded ring of published epochs (newest last,
	// ascending epoch after sorting on read); guarded by publishMu.
	history []EpochSummary

	// win is the one live window, in every mode; mu guards it (ingest,
	// freezing) and the backlog, and is never held across an RPC.
	// ingestMu orders cluster ingest — held across the fan-out and the
	// local apply, so workers and the window see batches in one order —
	// and is taken before mu, never after; other modes do not touch it.
	ingestMu sync.Mutex
	mu       sync.Mutex
	win      *stream.Window

	// backlog holds the frozen interval-stride checkpoints ingest has
	// queued for the solver (Config.EpochEvery); dropped counts the
	// checkpoints discarded past MaxEpochBacklog. Guarded by mu.
	backlog        []*stream.Window
	backlogDropped uint64

	computeMu sync.Mutex // serializes solver runs
	epoch     atomic.Uint64
	snap      atomic.Pointer[Snapshot]

	// tiers holds the server's own cumulative epoch-solve counts by
	// plan path for /v1/status (the tomod_epoch_solves_total counters
	// in metrics.go are process-wide, which tests sharing a registry
	// cannot read per server).
	tiers struct {
		cold, warm, repaired, repairedNumeric, repairFailed atomic.Uint64
	}

	// wal is the write-ahead log behind the window (nil when
	// durability is disabled); walRecovered the recovery record of the
	// startup scan, frozen after New.
	wal          *wal.WAL
	walRecovered wal.RecoveryStats

	// degraded holds the latest contained-failure reason (a string; ""
	// when healthy). Solver panics set it; the next clean publish
	// clears it. A latched WAL failure is reported alongside it by
	// DegradedReason.
	degraded atomic.Value

	// baseCtx is the lifetime context of the service: Close cancels it,
	// which aborts any in-flight epoch solve promptly.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// kicks wakes a cluster coordinator's shard loops, one capacity-1
	// channel each: runShard k's at index k. nil when the blocks are
	// solved in-process, whose one loop (run) runs on its tick.
	kicks []chan struct{}

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New assembles a server over the topology, resolving the configured
// estimator and validating the solver options eagerly so a bad
// configuration fails here rather than on the first epoch. Call Start
// to launch the recompute loop and Close to stop it.
func New(top *topology.Topology, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.WindowSize > MaxWindowSize {
		return nil, fmt.Errorf("server: window size %d exceeds the maximum %d", cfg.WindowSize, MaxWindowSize)
	}
	est, err := estimator.New(cfg.Algo)
	if err != nil {
		return nil, err
	}
	if _, err := estimator.Apply(cfg.SolverOpts...); err != nil {
		return nil, err
	}
	backend, err := newBackend(top, cfg, est)
	if err != nil {
		return nil, err
	}
	if cfg.EpochEvery > 0 && cfg.Backend != nil {
		return nil, errors.New("server: Config.EpochEvery requires in-process blocks; a cluster Backend's workers solve their live windows, not the checkpoints")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		top:         top,
		cfg:         cfg,
		logger:      logger,
		backend:     backend,
		cluster:     cfg.Backend,
		shardStates: make([]*shardState, backend.NumShards()),
		sharded:     cfg.Algo == estimator.CorrelationCompleteSharded,
		baseCtx:     ctx,
		baseCancel:  cancel,
		stop:        make(chan struct{}),
		win:         stream.NewWindow(top.NumPaths(), cfg.WindowSize),
	}
	for i := range s.shardStates {
		s.shardStates[i] = &shardState{}
	}
	if s.sharded {
		s.shardLag = make([]*telemetry.Gauge, len(s.shardStates))
		for i := range s.shardLag {
			s.shardLag[i] = metricShardLag.With(strconv.Itoa(i))
		}
	}
	if s.cluster != nil {
		s.kicks = make([]chan struct{}, len(s.shardStates))
		for i := range s.kicks {
			s.kicks[i] = make(chan struct{}, 1)
		}
	}
	if cfg.WAL.Dir != "" {
		if err := s.openWAL(); err != nil {
			cancel()
			return nil, err
		}
	}
	return s, nil
}

// openWAL opens (or recovers) the write-ahead log and rebuilds the
// window from it (wal.Restore). A log the scan cannot vouch for fails
// startup loudly rather than serving estimates over silently dropped
// data.
func (s *Server) openWAL() error {
	opts := s.cfg.WAL
	if opts.Horizon == 0 {
		opts.Horizon = s.cfg.WindowSize
	}
	w, err := wal.Restore(opts, s.win, s.logger)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.wal = w
	s.walRecovered = w.Recovered()
	return nil
}

// NumShards returns the number of shard blocks an epoch merges (0
// outside sharded mode).
func (s *Server) NumShards() int {
	if !s.sharded {
		return 0
	}
	return len(s.shardStates)
}

// Topology returns the topology the server monitors.
func (s *Server) Topology() *topology.Topology { return s.top }

// Algo returns the registry name of the configured epoch solver.
func (s *Server) Algo() string { return s.cfg.Algo }

// Start launches the background recompute loop: the one supervised
// loop when the blocks are solved in-process, else the cluster's
// background work and one solver goroutine per shard, woken once so a
// window recovered from the WAL (or an empty one) is published without
// waiting for a new batch.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		if s.cluster == nil {
			s.wg.Add(1)
			go s.run()
			return
		}
		s.cluster.Start(s)
		for sid := range s.shardStates {
			s.wg.Add(1)
			go s.runShard(sid)
		}
		s.kickLoops()
	})
}

// Close stops the recompute loop, cancelling any in-flight epoch solve,
// and waits for the loop to exit.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.baseCancel()
		close(s.stop)
	})
	s.wg.Wait()
	if s.cluster != nil {
		s.cluster.Close() // after the solver loops: no more backend solves in flight
	}
	if s.wal != nil {
		s.wal.Close() // flushes the tail; safe after ingest has stopped
	}
}

// Ready reports whether the service can serve coherent queries: WAL
// recovery (synchronous in New) is complete and the first snapshot has
// been published. GET /v1/readyz exposes it to orchestrators.
func (s *Server) Ready() bool { return s.snap.Load() != nil }

// WALStats returns the live WAL counters and the startup recovery
// record; ok is false when durability is disabled.
func (s *Server) WALStats() (st wal.Stats, rec wal.RecoveryStats, ok bool) {
	if s.wal == nil {
		return wal.Stats{}, wal.RecoveryStats{}, false
	}
	return s.wal.Stats(), s.walRecovered, true
}

// SolveTierCounts is the server's cumulative published-epoch count by
// plan path, as served on /v1/status. RepairFailed counts cold solves
// whose repair attempt failed and overlaps Cold; the other four
// partition the total.
type SolveTierCounts struct {
	Cold            uint64 `json:"cold"`
	Warm            uint64 `json:"warm"`
	Repaired        uint64 `json:"repaired"`
	RepairedNumeric uint64 `json:"repaired_numeric"`
	RepairFailed    uint64 `json:"repair_failed"`
}

// SolveTiers returns the cumulative per-tier epoch-solve counts.
func (s *Server) SolveTiers() SolveTierCounts {
	return SolveTierCounts{
		Cold:            s.tiers.cold.Load(),
		Warm:            s.tiers.warm.Load(),
		Repaired:        s.tiers.repaired.Load(),
		RepairedNumeric: s.tiers.repairedNumeric.Load(),
		RepairFailed:    s.tiers.repairFailed.Load(),
	}
}

// ErrSolverPanic wraps a panic recovered from an estimator call: the
// panic becomes an error snapshot plus a degraded_reason on
// /v1/status instead of killing the daemon.
var ErrSolverPanic = errors.New("server: solver panicked")

// guardPanic runs fn, containing any panic as an ErrSolverPanic and
// marking the server degraded.
func (s *Server) guardPanic(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrSolverPanic, r)
			s.setDegraded(err.Error())
			metricSolverPanics.Inc()
			s.logger.Error("solver panicked", "panic", fmt.Sprint(r))
		}
	}()
	fn()
	return nil
}

func (s *Server) setDegraded(reason string) { s.degraded.Store(reason) }

// DegradedReason returns why the service is degraded ("" when
// healthy): the latest contained solver panic — cleared by the next
// clean publish — a latched WAL failure, which persists until restart
// (see the wal package's degradation contract), or unreachable cluster
// shards, which clear when the owning workers rejoin and catch up.
func (s *Server) DegradedReason() string {
	if v, _ := s.degraded.Load().(string); v != "" {
		return v
	}
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			return "wal: " + err.Error()
		}
	}
	if cs := s.clusterStatus(); cs != nil && len(cs.UnreachableShards) > 0 {
		return fmt.Sprintf("cluster: %d shard(s) unavailable (workers unreachable)", len(cs.UnreachableShards))
	}
	return ""
}

// clusterStatus returns the backend's worker report, or nil outside
// cluster mode.
func (s *Server) clusterStatus() *ClusterStatus {
	if s.cluster != nil {
		return s.cluster.ClusterStatus()
	}
	return nil
}

// Ingest appends a batch of interval observations to the live window,
// atomically with respect to snapshot cloning, and returns the sequence
// number after the batch. Sets may contain indices outside the path
// universe; they are dropped (stream.Window.Add). Every mode
// applies the batch to the same window under mu.
//
// With Config.EpochEvery set, ingest also freezes a window checkpoint
// at every stride boundary it crosses, bounded by MaxEpochBacklog
// (oldest dropped first); the batch is split at those boundaries so
// each WAL record ends exactly on a checkpoint seq.
//
// In cluster mode (Config.Backend is set) the batch is first
// forwarded to the shard owners, keyed by the pre-batch sequence, and
// applied locally only once the whole fan-out has accepted it. A retry
// after a partial failure is safe either way: workers deduplicate by
// base seq. ingestMu spans the fan-out and the apply, so concurrent
// batches reach workers and window in one order; mu is taken only for
// the apply, so status reads, freezes and solves never wait on an RPC.
//
// With a WAL attached, each (sub-)batch is persisted before it is
// applied; on a log failure nothing past the failed record is applied
// and the error is returned — the HTTP layer maps it to 503 with
// Retry-After. A stalled WAL disk fails fast (wal.ErrStalled) instead
// of wedging every ingest request behind the hung fsync.
//
// Whatever it applied, Ingest then wakes a cluster coordinator's solver
// loops (see RecomputeEvery).
func (s *Server) Ingest(batch []*bitset.Set) (uint64, error) {
	if s.cluster != nil {
		s.ingestMu.Lock()
		defer s.ingestMu.Unlock()
		base := s.Seq()
		if err := s.cluster.Forward(base, batch); err != nil {
			s.logger.Warn("ingest fan-out failed", "seq", base, "error", err)
			return base, err
		}
		defer s.kickLoops()
	}
	n := uint64(len(batch))
	stride := uint64(s.cfg.EpochEvery)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(batch) > 0 {
		nb := len(batch)
		if stride > 0 {
			if to := int(stride - s.win.Seq()%stride); to < nb {
				nb = to
			}
		}
		seq, err := s.win.AddBatch(batch[:nb])
		if err != nil {
			s.logger.Warn("ingest failed", "seq", seq, "error", err)
			return seq, err
		}
		batch = batch[nb:]
		if stride > 0 && seq%stride == 0 {
			s.enqueueCheckpointLocked(s.win.Freeze())
		}
	}
	metricIngestBatches.Inc()
	metricIngestIntervals.Add(n)
	return s.win.Seq(), nil
}

// kickLoops wakes every kick-driven solver loop; a loop already woken
// stays woken once. Outside cluster mode there is no loop to wake.
func (s *Server) kickLoops() {
	for _, k := range s.kicks {
		kick(k)
	}
}

// kick wakes the loop sleeping on k unless a wake-up is already pending.
func kick(k chan struct{}) {
	select {
	case k <- struct{}{}:
	default:
	}
}

// enqueueCheckpointLocked queues one frozen checkpoint for the drain.
// The caller holds mu.
func (s *Server) enqueueCheckpointLocked(ck *stream.Window) {
	s.backlog = append(s.backlog, ck)
	s.boundBacklogLocked()
}

// requeueBacklog puts the checkpoints of a cancelled drain back in
// front of whatever ingest queued meanwhile, for the next tick.
func (s *Server) requeueBacklog(pending []*stream.Window) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backlog = append(pending, s.backlog...)
	s.boundBacklogLocked()
}

// boundBacklogLocked re-applies MaxEpochBacklog after the queue grew —
// the oldest checkpoints are dropped and counted — and refreshes the
// backlog gauges (per shard too in sharded mode). The caller holds mu.
func (s *Server) boundBacklogLocked() {
	if over := len(s.backlog) - s.cfg.MaxEpochBacklog; over > 0 {
		s.backlog = append(s.backlog[:0], s.backlog[over:]...)
		s.backlogDropped += uint64(over)
		metricCheckpointsDropped.Add(uint64(over))
	}
	metricBacklog.Set(int64(len(s.backlog)))
	for _, st := range s.shardStates {
		st.epochBacklog.Store(int64(len(s.backlog)))
	}
}

// Seq returns the total number of intervals ingested.
func (s *Server) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.Seq()
}

// FreezeWindow returns the live window frozen at its sequence (see
// stream.Window.Freeze), taken under the ingest lock so it is
// batch-atomic. A Cluster replays worker catch-up from it.
func (s *Server) FreezeWindow() *stream.Window { return s.freezeUnlessAt(nil) }

// freezeUnlessAt freezes the live window under mu — unless drained,
// the newest snapshot a backlog drain just published, already stands at
// the live sequence: then there is nothing to freeze and it returns
// nil.
func (s *Server) freezeUnlessAt(drained *Snapshot) *stream.Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	if drained != nil && drained.SeqHigh == s.win.Seq() {
		return nil
	}
	return s.win.Freeze()
}

// Latest returns the most recently published snapshot, or nil before
// the first solve completes.
func (s *Server) Latest() *Snapshot { return s.snap.Load() }

// backlogPending reports whether interval-stride checkpoints await the
// solver.
func (s *Server) backlogPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.backlog) > 0
}

// backlogStats returns the pending checkpoint count and how many have
// been dropped past MaxEpochBacklog.
func (s *Server) backlogStats() (pending int, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.backlog), s.backlogDropped
}

// newSnapshot starts the snapshot of a solve over window that took
// computeTime and ended in err: everything but the epoch, the estimate,
// the tier and the shard rows, which the caller fills in.
func (s *Server) newSnapshot(window *stream.Window, computeTime time.Duration, err error) *Snapshot {
	return &Snapshot{
		Algo:        s.cfg.Algo,
		Window:      window,
		SeqHigh:     window.Seq(),
		T:           window.T(),
		ComputedAt:  time.Now(),
		ComputeTime: computeTime,
		Err:         err,
		top:         s.top,
		opts:        s.cfg.SolverOpts,
		lifetime:    s.baseCtx,
		byAlgo:      map[string]*algoCell{},
	}
}

// Recompute is one synchronous epoch: drain the queued checkpoints,
// freeze the live window unless the drain already published its state,
// solve every block over that one frozen clone, then assemble and
// publish the snapshot and return it. Because every block is solved at
// the same sequence, the published estimate equals an offline solve of
// the surviving window. It is what the in-process background loop (run)
// calls each tick; tests and the daemon's shutdown path call it
// directly.
//
// ctx cancels the solve mid-flight: the returned snapshot then carries
// ctx.Err() (wrapped) in Err, is NOT published, and does not consume an
// epoch — the previously published snapshot stays current. A nil ctx
// means the server's lifetime context.
func (s *Server) Recompute(ctx context.Context) *Snapshot {
	if ctx == nil {
		ctx = s.baseCtx
	}
	s.computeMu.Lock()
	defer s.computeMu.Unlock()
	drained, err := s.drainBacklog(ctx)
	if err != nil {
		return drained // error/cancelled snapshot; checkpoints handled per contract
	}
	w := s.freezeUnlessAt(drained)
	if w == nil {
		return drained // the newest checkpoint was the live state: already published
	}
	start := time.Now()
	sols := make([]ShardSolve, len(s.shardStates))
	durs := make([]time.Duration, len(s.shardStates))
	for sid := range s.shardStates {
		blockStart := time.Now()
		sol, err := s.solveBlock(ctx, sid, w)
		if err != nil {
			snap := s.newSnapshot(w, time.Since(start), err)
			if !canceled(err) {
				s.publish(snap)
			}
			return snap // a cancelled solve is not published and consumes no epoch
		}
		sols[sid], durs[sid] = sol[0], time.Since(blockStart)
	}
	return s.assemble(w, sols, durs)
}

// solveBlock solves block sid over wins under the block's mutex and the
// panic guard: one window through SolveShard, a drain's run of
// checkpoints through the batched seam (New guarantees the backend has
// it whenever checkpoints are queued).
func (s *Server) solveBlock(ctx context.Context, sid int, wins ...*stream.Window) (sols []ShardSolve, err error) {
	st := s.shardStates[sid]
	st.mu.Lock()
	defer st.mu.Unlock()
	if perr := s.guardPanic(func() {
		if len(wins) > 1 {
			sols, err = s.backend.(ShardBatchSolver).SolveShardBatch(ctx, sid, wins)
			return
		}
		var sol ShardSolve
		sol, err = s.backend.SolveShard(ctx, sid, wins[0])
		sols = []ShardSolve{sol}
	}); perr != nil {
		return nil, perr
	}
	return sols, err
}

// drainBacklog solves every queued interval-stride checkpoint — the same
// run of frozen windows through each block's batched solve — and
// publishes one epoch per checkpoint, oldest first, returning the newest
// published snapshot (nil when the backlog was empty). Errors follow
// Recompute's contract: a cancellation requeues the checkpoints (the
// MaxEpochBacklog bound re-applied) and returns an unpublished snapshot
// consuming no epoch; any other solver error publishes the error
// snapshot — visible on /v1/status and in the history — and drops the
// failed checkpoints so a persistent error can never pin the solver to
// the backlog and starve the live-window solve.
func (s *Server) drainBacklog(ctx context.Context) (*Snapshot, error) {
	s.mu.Lock()
	pending := s.backlog
	s.backlog = nil
	metricBacklog.Set(0)
	s.mu.Unlock()
	if len(pending) == 0 {
		return nil, nil
	}
	start := time.Now()
	sols := make([][]ShardSolve, len(s.shardStates))
	var err error
	for sid, st := range s.shardStates {
		if sols[sid], err = s.solveBlock(ctx, sid, pending...); err != nil {
			break
		}
		st.epochBacklog.Store(0) // this block's checkpoints are solved
	}
	if err != nil {
		snap := s.newSnapshot(pending[len(pending)-1], time.Since(start), err)
		if canceled(err) {
			s.requeueBacklog(pending)
			return snap, err // not published, no epoch consumed
		}
		s.publish(snap)
		s.mu.Lock()
		s.backlogDropped += uint64(len(pending))
		s.mu.Unlock()
		metricCheckpointsDropped.Add(uint64(len(pending)))
		for _, st := range s.shardStates {
			st.epochBacklog.Store(0)
		}
		return snap, err
	}
	// One publish per checkpoint, oldest first; the drain's wall time is
	// amortized evenly across the drained epochs, while the stage
	// histograms are fed from each block's own info (build and repair are
	// per checkpoint, a run's solve tail is split across the run).
	share := time.Since(start) / time.Duration(len(pending))
	durs := make([]time.Duration, len(s.shardStates))
	row := make([]ShardSolve, len(s.shardStates))
	for sid := range durs {
		durs[sid] = share
	}
	var newest *Snapshot
	for k, ck := range pending {
		for sid := range row {
			row[sid] = sols[sid][k]
		}
		newest = s.assemble(ck, row, durs)
	}
	return newest, nil
}

// assemble is the one merge-and-publish step. Under publishMu it adopts
// each block of sols (see adoptLocked; sols nil — a cluster shard
// loop's background publish — adopts nothing), collects every block's
// published state and takes the next epoch, so epochs are ordered by
// collection time. Off
// the lock it builds the estimate — the one block's own outside sharded
// mode, the backend's merge of every shard's block over win inside it —
// and publishes the snapshot over win, which a background publish (win
// nil) freezes at merge time; its ComputeTime is the slowest collected
// block's. It returns nil, publishing nothing, until every block has
// solved once, and when a background merge panics (the previous snapshot
// stays; degraded_reason is set) — a synchronous epoch publishes that
// panic as its error snapshot instead.
func (s *Server) assemble(win *stream.Window, sols []ShardSolve, durs []time.Duration) *Snapshot {
	live := s.Seq() // before publishMu: Seq takes the ingest lock; keep the two disjoint
	s.publishMu.Lock()
	var blocks []*core.Result
	var shards []ShardInfo
	if s.sharded {
		blocks = make([]*core.Result, len(s.shardStates))
		shards = make([]ShardInfo, len(s.shardStates))
	}
	var est *estimator.Estimate
	var tier core.Tier
	var computeTime time.Duration
	for sid, st := range s.shardStates {
		if sols != nil {
			s.adoptLocked(sid, sols[sid], durs[sid], live)
		}
		if st.epoch == 0 {
			s.publishMu.Unlock()
			return nil
		}
		computeTime = max(computeTime, st.computeTime)
		if s.sharded {
			blocks[sid], shards[sid] = st.res, s.shardInfoLocked(sid)
		} else {
			est, tier = st.est, st.Tier // the one block is the whole estimate
		}
	}
	epoch := s.epoch.Add(1)
	s.publishMu.Unlock()

	if win == nil {
		win = s.FreezeWindow()
	}
	var err error
	if s.sharded {
		if err = s.guardPanic(func() { est = s.backend.Merge(blocks, win) }); err != nil && sols == nil {
			return nil
		}
	}
	snap := s.newSnapshot(win, computeTime, err)
	snap.Epoch, snap.Est, snap.Tier, snap.Shards = epoch, est, tier, shards
	s.publish(snap)
	return snap
}

// adoptLocked makes sol block sid's published state and consumes a block
// epoch, feeding the tier counters and (sharded mode) the shard's lag
// behind live — unless the block already holds a newer solve (a
// concurrent solve raced ahead), which then wins. The caller holds
// publishMu.
func (s *Server) adoptLocked(sid int, sol ShardSolve, computeTime time.Duration, live uint64) bool {
	st := s.shardStates[sid]
	if sol.SeqHigh < st.seqHigh {
		return false
	}
	st.res, st.est, st.seqHigh, st.t, st.err = sol.Res, sol.Est, sol.SeqHigh, sol.T, nil
	st.Tier = sol.Info.Tier
	st.epoch++
	st.computeTime = computeTime
	s.observeSolve(sol.Info)
	if s.sharded {
		s.shardLag[sid].Set(int64(live - min(live, sol.SeqHigh))) // a remote solve may run ahead of the local window
	}
	return true
}

// publish makes snap the latest snapshot unless that would move the
// latest backwards — to an older epoch or an older ingest sequence — and
// records it in the history ring either way. An assembled snapshot
// carries the epoch it was collected under; an error snapshot takes the
// next one here. A drained checkpoint older than an already-published
// live window, or a merge that lost the race to a later-collected one,
// thus consumes its epoch and enters the history but never rolls queries
// back.
func (s *Server) publish(snap *Snapshot) {
	// The lag gauge reads the live sequence before taking publishMu
	// (Seq takes the ingest lock; keep the two disjoint).
	lag := int64(s.Seq() - snap.SeqHigh)
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	if snap.Epoch == 0 {
		snap.Epoch = s.epoch.Add(1)
	}
	if cur := s.snap.Load(); cur == nil || (cur.Epoch < snap.Epoch && cur.SeqHigh <= snap.SeqHigh) {
		s.snap.Store(snap)
		metricEpochLag.Set(lag)
	}
	if snap.Err == nil {
		s.setDegraded("") // a clean epoch ends solver-panic degradation
	}
	s.appendHistoryLocked(snap)
	s.logEpoch(snap)
}

// canceled reports whether a solve ended by cancellation (shutdown,
// supersession or the caller's ctx) rather than failing.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// logEpoch emits one structured event per published epoch: debug on a
// clean solve (these are frequent), warn on an error snapshot.
func (s *Server) logEpoch(snap *Snapshot) {
	if snap.Err != nil {
		s.logger.Warn("epoch solve failed",
			"epoch", snap.Epoch,
			"seq_high", snap.SeqHigh,
			"error", snap.Err.Error())
		return
	}
	s.logger.Debug("epoch published",
		"epoch", snap.Epoch,
		"seq_high", snap.SeqHigh,
		"t", snap.T,
		tierAttrs(snap.Tier),
		"shards", len(snap.Shards),
		"compute_ms", float64(snap.ComputeTime)/float64(time.Millisecond))
}

// tierAttrs renders a tier as the warm / repaired / repaired_numeric /
// repair_failed attributes of the epoch log events (an empty-key group
// inlines into the event).
func tierAttrs(t core.Tier) slog.Attr {
	return slog.Group("",
		"warm", t.Warm,
		"repaired", t.Repaired,
		"repaired_numeric", t.RepairedNumeric,
		"repair_failed", t.RepairFailed)
}

// epochHistoryCap bounds the history ring behind GET /v1/epochs.
const epochHistoryCap = 64

// appendHistoryLocked records a published epoch; the caller holds
// publishMu.
func (s *Server) appendHistoryLocked(snap *Snapshot) {
	sum := EpochSummary{
		Epoch:       snap.Epoch,
		SeqHigh:     snap.SeqHigh,
		T:           snap.T,
		Tier:        snap.Tier,
		ComputedAt:  snap.ComputedAt,
		ComputeTime: snap.ComputeTime,
	}
	if snap.Err != nil {
		sum.Err = snap.Err.Error()
	}
	s.history = append(s.history, sum)
	if len(s.history) > epochHistoryCap {
		s.history = append(s.history[:0], s.history[len(s.history)-epochHistoryCap:]...)
	}
}

// History returns the published-epoch ring, oldest first.
func (s *Server) History() []EpochSummary {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	out := append([]EpochSummary(nil), s.history...)
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// runShard is a cluster coordinator's shard sid loop. It sleeps until
// kicked, waits out whatever remains of RecomputeEvery since its
// previous solve start, then runs one shard epoch (solveShard), skipped
// while nothing has been ingested since the shard's last solve. A kick
// that lands meanwhile stays pending, so a batch committed during a
// solve is never missed, and an idle loop arms no timer. A failed solve
// kicks the loop again, so the shard is retried RecomputeEvery later (a
// worker that is rejoining) without waiting for a new batch. Shutdown
// cancels an in-flight solve via the lifetime context.
func (s *Server) runShard(sid int) {
	defer s.wg.Done()
	k := s.kicks[sid]
	var last time.Time
	var timer *time.Timer
	for {
		select {
		case <-s.stop:
			return
		case <-k:
		}
		if wait := s.cfg.RecomputeEvery - time.Since(last); wait > 0 {
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case <-s.stop:
				return
			case <-timer.C:
			}
		}
		start := time.Now()
		s.publishMu.Lock()
		solved := s.shardStates[sid].epoch > 0
		seq := s.shardStates[sid].seqHigh
		s.publishMu.Unlock()
		if solved && seq == s.Seq() {
			continue // nothing new since this shard's last epoch
		}
		last = start
		ok := false
		s.tickSafely(func() { ok = s.solveShard(s.baseCtx, sid) })
		if !ok {
			kick(k)
		}
	}
}

// solveShard runs one cluster epoch of shard sid: freeze the window
// under the ingest lock, fetch the shard's block off-lock (the owning
// worker warm-starts its structural plan while the shard's always-good
// set is unchanged), adopt it and assemble a fresh merged snapshot. A
// block
// solved at an older sequence than the shard's published state (a
// synchronous Recompute raced ahead) is dropped rather than allowed to
// roll the shard backwards. It reports whether the solve succeeded.
func (s *Server) solveShard(ctx context.Context, sid int) bool {
	win := s.FreezeWindow()
	start := time.Now()
	sols, err := s.solveBlock(ctx, sid, win)
	live := s.Seq()
	s.publishMu.Lock()
	st := s.shardStates[sid]
	if err != nil {
		st.err = err
		s.publishMu.Unlock()
		s.logger.Warn("shard solve failed", "shard", sid, "seq", win.Seq(), "error", err.Error())
		return false // keep the shard's previous block; merged snapshot unchanged
	}
	adopted := s.adoptLocked(sid, sols[0], time.Since(start), live)
	shardEpoch, computeTime := st.epoch, st.computeTime
	s.publishMu.Unlock()
	if !adopted {
		return true
	}
	s.logger.Debug("shard epoch published",
		"shard", sid,
		"epoch", shardEpoch,
		"seq_high", sols[0].SeqHigh,
		tierAttrs(sols[0].Info.Tier),
		"compute_ms", float64(computeTime)/float64(time.Millisecond))
	s.assemble(nil, nil, nil)
	return true
}

// shardInfoLocked flattens shard sid's published state; the caller
// holds publishMu.
func (s *Server) shardInfoLocked(sid int) ShardInfo {
	st := s.shardStates[sid]
	paths, links := s.backend.ShardSize(sid)
	return ShardInfo{
		Shard:        sid,
		Epoch:        st.epoch,
		SeqHigh:      st.seqHigh,
		T:            st.t,
		Tier:         st.Tier,
		ComputeTime:  st.computeTime,
		EpochBacklog: int(st.epochBacklog.Load()),
		Paths:        paths,
		Links:        links,
	}
}

// run is the solver loop: one potential epoch per tick, skipped when
// nothing was ingested since the last one. Solves normally run under
// supersession supervision; after a superseded cancellation the next
// solve runs unsupervised (shutdown can still abort it), guaranteeing
// forward progress — when ingest permanently outruns the solver, every
// other solve still completes and publishes, so queries see a bounded-
// stale snapshot instead of starving on 503s.
func (s *Server) run() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.RecomputeEvery)
	defer ticker.Stop()
	superseded := false
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if last := s.snap.Load(); last != nil && last.SeqHigh == s.Seq() && !s.backlogPending() {
				continue // window unchanged since the last epoch
			}
			if superseded {
				s.tickSafely(func() { s.Recompute(s.baseCtx) }) // backstop: run to completion
				superseded = false
				continue
			}
			s.tickSafely(func() { superseded = s.recomputeSupervised() })
		}
	}
}

// tickSafely contains a panic escaping one solver-loop iteration
// (outside the per-call guards — snapshot assembly, cloning, publish)
// so the loop survives to its next epoch with the panic recorded as
// the degradation reason instead of crashing the daemon.
func (s *Server) tickSafely(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.setDegraded(fmt.Sprintf("solver loop panic: %v", r))
			metricSolverPanics.Inc()
			s.logger.Error("solver loop panicked", "panic", fmt.Sprint(r))
		}
	}()
	fn()
}

// recomputeSupervised runs one epoch solve under supervision,
// cancelling it early in two cases: the server is closing, or the solve
// has been superseded — ingest has advanced a full window capacity past
// the solve's base, so the frozen clone being solved shares no interval
// with the live window and its result could only describe evicted data.
// A superseded solve is abandoned (never published); the return value
// reports whether that happened so the loop can back-stop the next one.
func (s *Server) recomputeSupervised() (superseded bool) {
	base := s.Seq()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.tickSafely(func() { s.Recompute(ctx) }) // solve runs off-loop: contain panics here too
	}()
	pollEvery := s.cfg.RecomputeEvery / 4
	if pollEvery < 10*time.Millisecond {
		pollEvery = 10 * time.Millisecond
	}
	poll := time.NewTicker(pollEvery)
	defer poll.Stop()
	for {
		select {
		case <-done:
			return false
		case <-s.stop:
			cancel()
			<-done
			return false
		case <-poll.C:
			if s.Seq() >= base+uint64(s.cfg.WindowSize) {
				cancel() // superseded: the solved window is fully evicted
				<-done
				return true
			}
		}
	}
}

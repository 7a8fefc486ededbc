package server

import (
	"context"
	"errors"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/observe"
	"repro/internal/stream"
)

// ErrShardUnavailable reports that a shard's owner cannot serve right
// now — in cluster mode, the worker holding the shard is unreachable or
// timing out. The HTTP layer maps it to 503 shard_unavailable with
// Retry-After, mirroring the wal_unavailable ingest path: the client
// should back off and retry rather than treat the batch as accepted.
var ErrShardUnavailable = errors.New("server: shard unavailable")

// ShardSolve is one shard's block as produced by a ShardBackend: the
// restricted result plus the ingest sequence and live interval count it
// was solved at. A local backend solves the window it is handed, so
// SeqHigh/T echo it; a cluster backend returns the owning worker's
// solve, which may run slightly ahead of the coordinator's clone.
type ShardSolve struct {
	Res     *core.Result
	SeqHigh uint64
	T       int
	Info    estimator.SolveInfo
}

// ShardBackend is where per-shard solves happen. The server's sharded
// machinery (per-shard loops, stale-guarded publication, merged
// snapshots) programs against this seam, so in-process warm solvers and
// the cluster coordinator's scatter-gather are interchangeable: the
// default backend wraps estimator.ShardedSolver; internal/cluster
// implements the same interface over worker RPCs.
type ShardBackend interface {
	// NumShards returns the number of independent shard solves per
	// epoch (at least 1).
	NumShards() int

	// ShardSize returns one shard's slice of the universe.
	ShardSize(shard int) (paths, links int)

	// SolveShard computes shard's block. win is a frozen clone of the
	// whole live window — the same clone for every shard of one epoch; a
	// shard's solve reads only its own paths' columns of it. A local
	// backend solves it directly; a remote backend may ignore it and
	// fetch the owning worker's solve instead. Errors wrap
	// ErrShardUnavailable when the shard's owner cannot serve.
	SolveShard(ctx context.Context, shard int, win *stream.Window) (ShardSolve, error)

	// Merge assembles the per-shard blocks (in shard order; nil entries
	// skipped) into one estimate over obs.
	Merge(results []*core.Result, obs observe.Store) *estimator.Estimate
}

// ShardBatchSolver is the optional batched drain seam of a
// ShardBackend: solve one block of shard per frozen window, carrying
// the shard's warm plan across the whole run. The server's
// interval-stride checkpoint drain (Config.EpochEvery in sharded mode)
// uses it when available — K queued checkpoints cost one set of
// right-hand sides plus a single batched back-substitution per shard —
// and falls back to sequential SolveShard calls otherwise (the cluster
// coordinator, whose workers solve their own live rings).
type ShardBatchSolver interface {
	SolveShardBatch(ctx context.Context, shard int, wins []*stream.Window) ([]ShardSolve, error)
}

// BatchForwarder is implemented by backends that replicate ingest to
// remote shard owners. When the configured backend implements it, every
// ingest batch is forwarded — keyed by the coordinator's pre-batch
// sequence so workers can deduplicate retries — before it is applied
// locally; a forwarding failure rejects the batch without applying it
// anywhere the client could not safely retry.
type BatchForwarder interface {
	Forward(baseSeq uint64, batch []*bitset.Set) error
}

// ShardSource is the view of the live ingest window a backend's
// background machinery (health checking, worker catch-up) reads: the
// current sequence and a frozen clone of the window to replay from.
// *Server implements it.
type ShardSource interface {
	Seq() uint64
	FreezeWindow() *stream.Window
}

// BackendLifecycle is implemented by backends with background work
// (health loops, reconnection). Start is called once from Server.Start
// with the server as the catch-up source; Close once from
// Server.Close, after the solver loops have exited. Close must be safe
// without a prior Start.
type BackendLifecycle interface {
	Start(src ShardSource)
	Close()
}

// ClusterReporter is implemented by backends that track remote workers;
// /v1/status surfaces the report and readiness degrades while any
// shard is unreachable.
type ClusterReporter interface {
	ClusterStatus() *ClusterStatus
}

// ClusterStatus is the cluster{} block of GET /v1/status.
type ClusterStatus struct {
	Role              string        `json:"role"`
	Workers           []WorkerState `json:"workers"`
	UnreachableShards []int         `json:"unreachable_shards,omitempty"`
}

// WorkerState is one worker's row in the cluster status: its shard
// placement, health-state machine position and acknowledged sequence.
type WorkerState struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Shards  []int  `json:"shards"`
	State   string `json:"state"` // connecting | healthy | unreachable | rejoining
	SeqHigh uint64 `json:"seq_high"`
	// LastError is the most recent RPC failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// localBackend is the in-process ShardBackend: estimator.ShardedSolver
// solving the server's own frozen windows with warm per-shard plans.
type localBackend struct {
	sv *estimator.ShardedSolver
}

func (b *localBackend) NumShards() int { return b.sv.NumShards() }

func (b *localBackend) ShardSize(shard int) (paths, links int) { return b.sv.ShardSize(shard) }

func (b *localBackend) SolveShard(ctx context.Context, shard int, win *stream.Window) (ShardSolve, error) {
	res, info, err := b.sv.SolveShard(ctx, shard, win)
	if err != nil {
		return ShardSolve{}, err
	}
	return ShardSolve{Res: res, SeqHigh: win.Seq(), T: win.T(), Info: info}, nil
}

func (b *localBackend) SolveShardBatch(ctx context.Context, shard int, wins []*stream.Window) ([]ShardSolve, error) {
	stores := make([]observe.Store, len(wins))
	for i, win := range wins {
		stores[i] = win
	}
	results, infos, err := b.sv.SolveShardBatch(ctx, shard, stores)
	if err != nil {
		return nil, err
	}
	out := make([]ShardSolve, len(results))
	for i, res := range results {
		out[i] = ShardSolve{Res: res, SeqHigh: wins[i].Seq(), T: wins[i].T(), Info: infos[i]}
	}
	return out, nil
}

func (b *localBackend) Merge(results []*core.Result, obs observe.Store) *estimator.Estimate {
	return b.sv.Merge(results, obs)
}

package server

import (
	"context"
	"errors"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
)

// ErrShardUnavailable reports that a shard's owner cannot serve right
// now — in cluster mode, the worker holding the shard is unreachable or
// timing out. The HTTP layer maps it to 503 shard_unavailable with
// Retry-After, mirroring the wal_unavailable ingest path: the client
// should back off and retry rather than treat the batch as accepted.
var ErrShardUnavailable = errors.New("server: shard unavailable")

// ShardSolve is one block as produced by a ShardBackend: the solved
// block plus the ingest sequence and live interval count it was solved
// at. A local backend solves the window it is handed, so SeqHigh/T echo
// it; a cluster backend returns the owning worker's solve, which may run
// slightly ahead of the coordinator's clone.
type ShardSolve struct {
	// Res is a shard's restricted result, merged with the other
	// shards' by ShardBackend.Merge; nil from the one-block backend.
	Res *core.Result

	// Est is the estimate itself when the block is the whole universe
	// (the one-block backend, which every algorithm but the sharded one
	// solves through); a one-block epoch publishes it as is. nil from
	// sharded backends.
	Est *estimator.Estimate

	SeqHigh uint64
	T       int
	Info    estimator.SolveInfo
}

// ShardBackend is where an epoch's blocks are solved, in every mode: the
// server's one epoch body (stale-guarded adoption, merged or one-block
// snapshots) programs against this seam, so the one-block backend, the
// in-process sharded solver and the cluster coordinator's
// scatter-gather are interchangeable. internal/cluster implements the
// same interface over worker RPCs.
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

// ShardBatchSolver is the batched drain seam of a ShardBackend: solve
// one block of shard per frozen window, carrying the shard's warm plan
// across the whole run. The server's interval-stride checkpoint drain
// (Config.EpochEvery) runs through it — K queued checkpoints cost one
// set of right-hand sides plus a single batched back-substitution per
// block. Both in-process backends implement it; a Cluster does not (its
// workers solve their own live windows, not the checkpoints), so
// server.New rejects EpochEvery with one.
type ShardBatchSolver interface {
	SolveShardBatch(ctx context.Context, shard int, wins []*stream.Window) ([]ShardSolve, error)
}

// Cluster is a ShardBackend whose shards are solved by remote workers:
// the cluster coordinator (internal/cluster). Config.Backend takes one,
// and it is what makes a server a coordinator. Every ingest batch is
// forwarded before it is applied, one loop per shard wakes on applied
// batches (runShard), and /v1/status reports the fleet.
type Cluster interface {
	ShardBackend

	// Forward replicates one ingest batch to the shard owners, keyed by
	// the server's pre-batch sequence so workers can deduplicate
	// retries. It runs before the batch is applied locally; an error
	// rejects the batch without applying it anywhere the client could
	// not safely retry.
	Forward(baseSeq uint64, batch []*bitset.Set) error

	// Start is called once from Server.Start, with the server as the
	// catch-up source (its Seq and FreezeWindow); Close once from
	// Server.Close, after the solver loops have exited. Close must be
	// safe without a prior Start.
	Start(src *Server)
	Close()

	// ClusterStatus reports the workers; /v1/status surfaces the report
	// and readiness degrades while any shard is unreachable.
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
	results, infos, err := b.sv.SolveShardBatch(ctx, shard, storesOf(wins))
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

// oneBlockBackend is the in-process ShardBackend of every algorithm but
// the sharded one: a single block, the whole universe, whose solve is
// the epoch estimate itself (ShardSolve.Est). Correlation-complete
// carries its structural plan across epochs in an estimator.WarmSolver
// and drains checkpoints through its batched multi-RHS path; any other
// registry estimator is stateless and solves each window afresh. It
// also serves a snapshot's per-request ?algo= estimates, stateless.
type oneBlockBackend struct {
	top  *topology.Topology
	opts []estimator.Option
	est  estimator.Estimator
	warm *estimator.WarmSolver // correlation-complete only
}

func (b *oneBlockBackend) NumShards() int { return 1 }

func (b *oneBlockBackend) ShardSize(int) (paths, links int) {
	return b.top.NumPaths(), b.top.NumLinks()
}

func (b *oneBlockBackend) SolveShard(ctx context.Context, shard int, win *stream.Window) (ShardSolve, error) {
	sols, err := b.SolveShardBatch(ctx, shard, []*stream.Window{win})
	if err != nil {
		return ShardSolve{}, err
	}
	return sols[0], nil
}

func (b *oneBlockBackend) SolveShardBatch(ctx context.Context, _ int, wins []*stream.Window) ([]ShardSolve, error) {
	var ests []*estimator.Estimate
	var infos []estimator.SolveInfo
	var err error
	if b.warm != nil {
		ests, infos, err = b.warm.EstimateBatch(ctx, storesOf(wins))
	} else {
		ests, infos = make([]*estimator.Estimate, len(wins)), make([]estimator.SolveInfo, len(wins))
		for i, win := range wins {
			if ests[i], err = b.est.Estimate(ctx, b.top, win, b.opts...); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([]ShardSolve, len(wins))
	for i, win := range wins {
		out[i] = ShardSolve{Est: ests[i], SeqHigh: win.Seq(), T: win.T(), Info: infos[i]}
	}
	return out, nil
}

// Merge is never called: a one-block epoch publishes its block's Est.
func (b *oneBlockBackend) Merge([]*core.Result, observe.Store) *estimator.Estimate { return nil }

// newBackend resolves where an epoch's blocks are solved: the cluster
// of Config.Backend or the in-process sharded solver for the sharded
// algorithm, the one-block backend over est for every other.
func newBackend(top *topology.Topology, cfg Config, est estimator.Estimator) (ShardBackend, error) {
	switch {
	case cfg.Algo == estimator.CorrelationCompleteSharded && cfg.Backend != nil:
		return cfg.Backend, nil
	case cfg.Algo == estimator.CorrelationCompleteSharded:
		sv, err := estimator.NewShardedSolver(top, cfg.SolverOpts...)
		if err != nil {
			return nil, err
		}
		return &localBackend{sv: sv}, nil
	case cfg.Backend != nil:
		return nil, errors.New("server: Config.Backend requires the sharded algorithm (correlation-complete-sharded)")
	}
	b := &oneBlockBackend{top: top, opts: cfg.SolverOpts, est: est}
	if cfg.Algo == estimator.CorrelationComplete {
		ws, err := estimator.NewWarmSolver(top, cfg.SolverOpts...)
		if err != nil {
			return nil, err
		}
		b.warm = ws
	}
	return b, nil
}

// storesOf views a run of frozen windows as the observation stores the
// estimator's batched solves take.
func storesOf(wins []*stream.Window) []observe.Store {
	stores := make([]observe.Store, len(wins))
	for i, win := range wins {
		stores[i] = win
	}
	return stores
}

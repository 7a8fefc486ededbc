package estimator

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/topology"
)

// CorrelationCompleteSharded is the registry name of the sharded
// Correlation-complete estimator.
const CorrelationCompleteSharded = "correlation-complete-sharded"

func init() {
	register(correlationCompleteSharded{})
}

// correlationCompleteSharded is the stateless registry form: each call
// partitions the topology, solves every shard from scratch, and merges.
// The streaming server keeps a ShardedSolver instead, which adds
// warm-started per-shard plans across epochs; both produce identical
// estimates.
type correlationCompleteSharded struct{}

func (correlationCompleteSharded) Name() string { return CorrelationCompleteSharded }

func (correlationCompleteSharded) Description() string {
	return "Correlation-complete solved independently per correlation-set shard (the connected components of the correlation-set/path incidence) and merged; identical output, block-wise cost"
}

func (correlationCompleteSharded) Estimate(ctx context.Context, top *topology.Topology, obs observe.Store, opts ...Option) (*Estimate, error) {
	sv, err := NewShardedSolver(top, opts...)
	if err != nil {
		return nil, err
	}
	if err := checkUniverse(CorrelationCompleteSharded, top, obs); err != nil {
		return nil, err
	}
	results := make([]*core.Result, sv.NumShards())
	for s := range results {
		res, _, err := sv.SolveShard(ctx, s, obs)
		if err != nil {
			return nil, err
		}
		results[s] = res
	}
	return sv.Merge(results, obs), nil
}

// SolveInfo describes how an epoch solve used its carried-forward
// structural plan — the tier that served it and the per-stage wall
// time. It is the record the solver core returns per epoch, passed up
// unchanged.
type SolveInfo = core.EpochInfo

// ShardedSolver drives per-shard Correlation-complete solves over a
// fixed topology, carrying each shard's structural plan (enumeration,
// selected path sets, null space, QR factorization) from epoch to
// epoch. While a shard's always-good path set is unchanged, its solve
// skips the structural phases entirely and re-solves the retained
// factorization against fresh frequencies; a change invalidates only
// that shard's plan. This is the engine behind both the
// "correlation-complete-sharded" registry estimator (which discards the
// solver after one estimate) and the streaming server's per-shard
// solver loops (which retain it).
//
// Distinct shards may be solved from distinct goroutines concurrently;
// calls for the same shard must be serialized by the caller.
type ShardedSolver struct {
	top      *topology.Topology
	part     *topology.Partition
	settings Settings
	plans    []*core.Plan
	merges   core.MergeCache
}

// NewShardedSolver partitions the topology and validates the options.
func NewShardedSolver(top *topology.Topology, opts ...Option) (*ShardedSolver, error) {
	s, err := Apply(opts...)
	if err != nil {
		return nil, err
	}
	part := topology.NewPartition(top)
	return &ShardedSolver{
		top:      top,
		part:     part,
		settings: s,
		plans:    make([]*core.Plan, max(part.NumShards(), 1)),
	}, nil
}

// Partition returns the correlation-set partition the solver shards by.
func (sv *ShardedSolver) Partition() *topology.Partition { return sv.part }

// NumShards returns the number of independent solves per epoch (at
// least 1: a topology with no shardable structure degrades to one
// unrestricted solve).
func (sv *ShardedSolver) NumShards() int { return max(sv.part.NumShards(), 1) }

// ShardSize returns one shard's slice of the universe: its path and
// link counts (the whole universe when the partition is degenerate).
func (sv *ShardedSolver) ShardSize(shard int) (paths, links int) {
	if shard < sv.part.NumShards() {
		return sv.part.ShardPaths(shard).Count(), sv.part.ShardLinks(shard).Count()
	}
	return sv.top.NumPaths(), sv.top.NumLinks()
}

// shardConfig returns the core configuration of one shard's solve: the
// shared settings, restricted to the shard's correlation sets when
// there is more than one shard. With a single shard the solve runs
// unrestricted and is the plain Correlation-complete computation,
// bit for bit.
func (sv *ShardedSolver) shardConfig(shard int) core.Config {
	cfg := sv.settings.coreConfig()
	if sv.part.NumShards() > 1 {
		cfg.RestrictCorrSets = sv.part.ShardCorrSets(shard)
	}
	return cfg
}

// SolveShard computes shard's block of the system over obs, warm-
// starting from the shard's previous plan when its always-good path set
// is unchanged — or repairing the plan across the drift when the
// good-link frontier held (core.Plan.Repair): SolveShardBatch over the
// single store. obs is the full observation store (the server hands
// every shard the same frozen window) or any store that agrees with it
// on the shard's paths (a cluster worker's masked replica) — the solve
// only reads the shard's paths, whose statistics are identical in both.
// info reports how the carried-forward plan served.
func (sv *ShardedSolver) SolveShard(ctx context.Context, shard int, obs observe.Store) (res *core.Result, info SolveInfo, err error) {
	results, infos, err := sv.SolveShardBatch(ctx, shard, []observe.Store{obs})
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return results[0], infos[0], nil
}

// SolveShardBatch computes one block of shard per store, carrying the
// shard's plan across them and draining every maximal run of
// plan-compatible stores through one batched multi-RHS solve
// (core.ComputePlannedBatch). This is the catch-up path for a backlog
// of queued shard-ring snapshots: each block is independent of how the
// stores are grouped into calls. infos reports per store how the
// carried plan served it.
func (sv *ShardedSolver) SolveShardBatch(ctx context.Context, shard int, stores []observe.Store) ([]*core.Result, []SolveInfo, error) {
	if shard < 0 || shard >= len(sv.plans) {
		return nil, nil, fmt.Errorf("estimator: shard %d outside [0,%d)", shard, len(sv.plans))
	}
	results, infos, plan, err := core.ComputePlannedBatch(ctx, sv.top, stores, sv.shardConfig(shard), sv.plans[shard])
	if err != nil {
		return nil, nil, err
	}
	sv.plans[shard] = plan
	return results, infos, nil
}

// Merge assembles the per-shard results (in shard order; nil entries
// are skipped) into one Estimate over obs. The merged core.Result keeps
// every joint query working — the correlation-set partition guarantees
// each factors within a single shard's block — so the estimate carries
// full Detail exactly like the unsharded estimator's. While every block
// keeps the structure of the previous merge's (warm plans, or blocks
// decoded over an unchanged structure), the merged subset index and
// path sets are reused (core.MergeCache). Merge is safe to call
// concurrently.
func (sv *ShardedSolver) Merge(results []*core.Result, obs observe.Store) *Estimate {
	merged := sv.merges.Merge(sv.top, obs, results, sv.settings.AlwaysGoodTol)
	return estimateFromResult(CorrelationCompleteSharded, sv.top, merged)
}

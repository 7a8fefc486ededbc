package estimator

import (
	"context"

	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/topology"
)

// WarmSolver drives unsharded Correlation-complete solves over a fixed
// topology, carrying the structural plan (enumeration, selected path
// sets, identifiability, QR factorization) from epoch to epoch exactly
// like ShardedSolver does per shard. While the always-good path set is
// unchanged — or drifts within core.Plan.Repair's structure-preserving
// class — an epoch solve skips the structural phases and re-solves the
// retained factorization against fresh frequencies. Estimates are
// bit-identical to the stateless "correlation-complete" registry
// estimator by construction (warm, repaired and cold solves share the
// same solve tail).
//
// A WarmSolver is owned by one solver loop; it is not safe for
// concurrent use.
type WarmSolver struct {
	top      *topology.Topology
	settings Settings
	plan     *core.Plan
}

// NewWarmSolver validates the options and returns a solver with no
// plan yet (the first Estimate builds one).
func NewWarmSolver(top *topology.Topology, opts ...Option) (*WarmSolver, error) {
	s, err := Apply(opts...)
	if err != nil {
		return nil, err
	}
	return &WarmSolver{top: top, settings: s}, nil
}

// Estimate computes one epoch over obs, reusing the carried-forward
// plan when it can: EstimateBatch over the single store. info reports
// which plan tier served the epoch and its stage durations.
func (ws *WarmSolver) Estimate(ctx context.Context, obs observe.Store) (*Estimate, SolveInfo, error) {
	ests, infos, err := ws.EstimateBatch(ctx, []observe.Store{obs})
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return ests[0], infos[0], nil
}

// EstimateBatch computes one epoch per store, draining every maximal
// run of plan-compatible stores through a single batched multi-RHS
// solve (core.ComputePlannedBatch) — the catch-up path for a backlog
// of queued window snapshots. Each estimate is independent of how the
// stores are grouped into calls; infos reports per store how the
// carried plan served it.
func (ws *WarmSolver) EstimateBatch(ctx context.Context, stores []observe.Store) ([]*Estimate, []SolveInfo, error) {
	for _, obs := range stores {
		if err := checkUniverse(CorrelationComplete, ws.top, obs); err != nil {
			return nil, nil, err
		}
	}
	results, infos, plan, err := core.ComputePlannedBatch(ctx, ws.top, stores, ws.settings.coreConfig(), ws.plan)
	if err != nil {
		return nil, nil, err
	}
	ws.plan = plan
	out := make([]*Estimate, len(results))
	for i, res := range results {
		out[i] = estimateFromResult(CorrelationComplete, ws.top, res)
	}
	return out, infos, nil
}

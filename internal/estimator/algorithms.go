package estimator

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/observe"
	"repro/internal/probcalc"
	"repro/internal/topology"
)

// Registry names. The three probability algorithms come first in the
// paper's order of increasing assumption strength; the three
// Boolean-inference adapters follow.
const (
	CorrelationComplete  = "correlation-complete"
	Independence         = "independence"
	CorrelationHeuristic = "correlation-heuristic"
	Sparsity             = "sparsity"
	BayesianIndependence = "bayesian-independence"
	BayesianCorrelation  = "bayesian-correlation"
)

func init() {
	register(correlationComplete{})
	register(independence{})
	register(correlationHeuristic{})
	register(inferenceAdapter{
		name: Sparsity,
		desc: "Boolean-inference adapter: greedy Homogeneity-based per-interval diagnosis (Tomo), reported as per-link blame frequency",
		build: func(Settings) inference.Algorithm {
			return inference.NewSparsity()
		},
	})
	register(inferenceAdapter{
		name: BayesianIndependence,
		desc: "Boolean-inference adapter: CLINK's Bayesian MAP diagnosis under link independence, reported as per-link blame frequency",
		build: func(s Settings) inference.Algorithm {
			return inference.NewBayesianIndependence(s.independenceConfig())
		},
	})
	register(inferenceAdapter{
		name: BayesianCorrelation,
		desc: "Boolean-inference adapter: correlation-aware Bayesian diagnosis over Correlation-complete probabilities, reported as per-link blame frequency",
		build: func(s Settings) inference.Algorithm {
			return inference.NewBayesianCorrelation(s.coreConfig())
		},
	})
}

// coreConfig maps the shared settings onto the Correlation-complete
// solver configuration.
func (s Settings) coreConfig() core.Config {
	return core.Config{
		MaxSubsetSize:          s.MaxSubsetSize,
		AlwaysGoodTol:          s.AlwaysGoodTol,
		MaxEnumPathSets:        s.MaxEnumPathSets,
		NumericalPlanRepair:    s.NumericalPlanRepair,
		NumericalRepairMaxFrac: s.NumericalRepairMaxFrac,
	}
}

// independenceConfig maps the shared settings onto the Independence
// baseline configuration.
func (s Settings) independenceConfig() probcalc.IndependenceConfig {
	return probcalc.IndependenceConfig{
		PairsPerLink:  s.PairsPerLink,
		GlobalPairs:   s.GlobalPairs,
		AlwaysGoodTol: s.AlwaysGoodTol,
		Seed:          s.Seed,
	}
}

// checkUniverse rejects a store whose path universe does not match the
// topology before any computation starts.
func checkUniverse(name string, top *topology.Topology, obs observe.Store) error {
	if obs.NumPaths() != top.NumPaths() {
		return fmt.Errorf("estimator: %s: store has %d paths, topology has %d", name, obs.NumPaths(), top.NumPaths())
	}
	return nil
}

// ---------------------------------------------------------------------
// Correlation-complete
// ---------------------------------------------------------------------

type correlationComplete struct{}

func (correlationComplete) Name() string { return CorrelationComplete }

func (correlationComplete) Description() string {
	return "the paper's Correlation-complete algorithm: exact subset-level congestion probabilities under the Correlation Sets assumption"
}

func (correlationComplete) Estimate(ctx context.Context, top *topology.Topology, obs observe.Store, opts ...Option) (*Estimate, error) {
	s, err := Apply(opts...)
	if err != nil {
		return nil, err
	}
	if err := checkUniverse(CorrelationComplete, top, obs); err != nil {
		return nil, err
	}
	res, err := core.Compute(ctx, top, obs, s.coreConfig())
	if err != nil {
		return nil, err
	}
	return estimateFromResult(CorrelationComplete, top, res), nil
}

// estimateFromResult flattens a Correlation-complete result (a full run
// or a merge of per-shard blocks) into the unified estimate shape.
func estimateFromResult(name string, top *topology.Topology, res *core.Result) *Estimate {
	est := &Estimate{
		Algorithm:            name,
		LinkProb:             make([]float64, top.NumLinks()),
		LinkExact:            make([]bool, top.NumLinks()),
		PotentiallyCongested: res.PotentiallyCongested,
		Subsets:              make([]SubsetEstimate, len(res.Subsets)),
		Rank:                 res.Rank,
		Nullity:              res.Nullity,
		ClampedRows:          res.ClampedRows,
		Detail:               res,
	}
	for e := 0; e < top.NumLinks(); e++ {
		est.LinkProb[e], est.LinkExact[e] = res.LinkCongestProbOrFallback(e)
	}
	for i, sub := range res.Subsets {
		est.Subsets[i] = SubsetEstimate{
			ID:           i,
			Links:        sub.Links,
			CorrSet:      sub.CorrSet,
			GoodProb:     sub.GoodProb,
			Identifiable: sub.Identifiable,
		}
	}
	return est
}

// ---------------------------------------------------------------------
// Independence and Correlation-heuristic baselines
// ---------------------------------------------------------------------

// fromLinkResult flattens a baseline's per-link result into an
// Estimate.
func fromLinkResult(name string, res *probcalc.LinkResult) *Estimate {
	return &Estimate{
		Algorithm:            name,
		LinkProb:             res.Prob,
		LinkExact:            res.Exact,
		PotentiallyCongested: res.PotentiallyCongested,
	}
}

type independence struct{}

func (independence) Name() string { return Independence }

func (independence) Description() string {
	return "CLINK's probability-computation baseline: per-link probabilities assuming all links are independent"
}

func (independence) Estimate(ctx context.Context, top *topology.Topology, obs observe.Store, opts ...Option) (*Estimate, error) {
	s, err := Apply(opts...)
	if err != nil {
		return nil, err
	}
	if err := checkUniverse(Independence, top, obs); err != nil {
		return nil, err
	}
	res, err := probcalc.Independence(ctx, top, obs, s.independenceConfig())
	if err != nil {
		return nil, err
	}
	return fromLinkResult(Independence, res), nil
}

type correlationHeuristic struct{}

func (correlationHeuristic) Name() string { return CorrelationHeuristic }

func (correlationHeuristic) Description() string {
	return "the earlier correlation heuristic: per-link probabilities from conditional-ratio substitution under the Correlation Sets assumption"
}

func (correlationHeuristic) Estimate(ctx context.Context, top *topology.Topology, obs observe.Store, opts ...Option) (*Estimate, error) {
	s, err := Apply(opts...)
	if err != nil {
		return nil, err
	}
	if err := checkUniverse(CorrelationHeuristic, top, obs); err != nil {
		return nil, err
	}
	res, err := probcalc.CorrelationHeuristic(ctx, top, obs, probcalc.HeuristicConfig{
		AlwaysGoodTol: s.AlwaysGoodTol,
		Sweeps:        s.Sweeps,
	})
	if err != nil {
		return nil, err
	}
	return fromLinkResult(CorrelationHeuristic, res), nil
}

// ---------------------------------------------------------------------
// Boolean-inference adapters
// ---------------------------------------------------------------------

// inferenceAdapter lifts a per-interval Boolean-inference algorithm to
// the Estimator interface: after the algorithm's preparation step, it
// replays every interval of the store through Infer and reports each
// link's blame frequency — the fraction of intervals the algorithm
// inferred the link congested — as that link's congestion probability.
// This is exactly the estimate an operator would derive from a Boolean
// inferencer's output, which is what makes the adapters comparable to
// the probability algorithms on the paper's terms.
type inferenceAdapter struct {
	name  string
	desc  string
	build func(Settings) inference.Algorithm
}

func (a inferenceAdapter) Name() string { return a.name }

func (a inferenceAdapter) Description() string { return a.desc }

func (a inferenceAdapter) Estimate(ctx context.Context, top *topology.Topology, obs observe.Store, opts ...Option) (*Estimate, error) {
	s, err := Apply(opts...)
	if err != nil {
		return nil, err
	}
	if err := checkUniverse(a.name, top, obs); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	src, ok := obs.(observe.IntervalSource)
	if !ok {
		return nil, fmt.Errorf("estimator: %s diagnoses one interval at a time and needs the store's row view (observe.IntervalSource); %T does not provide it", a.name, obs)
	}
	alg := a.build(s)
	if err := alg.Prepare(ctx, top, obs); err != nil {
		return nil, err
	}
	counts := make([]int, top.NumLinks())
	T := obs.T()
	for t := 0; t < T; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		alg.Infer(src.CongestedAt(t)).ForEach(func(e int) bool {
			counts[e]++
			return true
		})
	}
	est := &Estimate{
		Algorithm:            a.name,
		LinkProb:             make([]float64, top.NumLinks()),
		LinkExact:            make([]bool, top.NumLinks()),
		PotentiallyCongested: potentiallyCongested(top, obs, s.AlwaysGoodTol),
	}
	for e := range counts {
		if T > 0 {
			est.LinkProb[e] = float64(counts[e]) / float64(T)
		}
		est.LinkExact[e] = true // blame frequency is the algorithm's direct output
	}
	return est, nil
}

// potentiallyCongested derives the links not covered by an always-good
// path, the shared evaluation set of every algorithm.
func potentiallyCongested(top *topology.Topology, obs observe.Store, tol float64) *bitset.Set {
	return top.PotentiallyCongestedLinks(top.LinksOf(obs.AlwaysGoodPaths(tol)))
}

// Package estimator defines the unified estimation API: one Estimator
// interface implemented by every probability-computation algorithm of
// the paper (Correlation-complete, Independence, Correlation-heuristic)
// and, via adapters, by the three Boolean-inference algorithms whose
// limitations the paper demonstrates. Callers select algorithms by
// registry name, tune them with shared functional options, run them
// over any observation store (a stream.Window sized to a full period,
// or a live one), and cancel long solves through context.Context.
//
// The package is the seam between the measurement substrate and the
// inference engines: scenarios, benchmarks and the streaming daemon all
// pick estimators by name, so adding an algorithm means registering one
// implementation here and every surface — CLI, HTTP API, experiments —
// can run it.
package estimator

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/topology"
)

// Estimator is one congestion-probability estimation algorithm.
// Implementations are stateless and safe for concurrent use: all
// per-run state lives in the call.
type Estimator interface {
	// Name is the registry name, e.g. "correlation-complete".
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// Estimate runs the algorithm over the observations. ctx cancels a
	// long solve (the implementations check it in their hot loops and
	// return ctx.Err() promptly); nil means context.Background().
	Estimate(ctx context.Context, top *topology.Topology, obs observe.Store, opts ...Option) (*Estimate, error)
}

// SubsetEstimate is the estimated good probability of one correlation
// subset (the paper's primary output): g(E) = P(all links in E good).
type SubsetEstimate struct {
	// ID indexes the subset within Estimate.Subsets; the HTTP API uses
	// it as the stable per-epoch subset identifier.
	ID int
	// Links is the subset E. It must not be modified.
	Links *bitset.Set
	// CorrSet is the index of E's correlation set.
	CorrSet int
	// GoodProb is g(E); NaN when not Identifiable.
	GoodProb float64
	// Identifiable reports whether the solve determined g(E).
	Identifiable bool
}

// Estimate is the unified output of every estimator: per-link
// congestion probabilities, plus subset-level probabilities and solver
// diagnostics for the algorithms that produce them.
type Estimate struct {
	// Algorithm is the registry name of the estimator that produced
	// this estimate.
	Algorithm string

	// LinkProb[e] estimates P(X_e = 1); never NaN. LinkExact[e] reports
	// whether the value came from the algorithm proper (true) or from
	// the shared observable fallback (false).
	LinkProb  []float64
	LinkExact []bool

	// PotentiallyCongested marks the links not traversed by an
	// always-good path — the links whose probability is a meaningful
	// question. It must not be modified.
	PotentiallyCongested *bitset.Set

	// Subsets holds the correlation-subset probabilities, nil for
	// estimators that only produce per-link output.
	Subsets []SubsetEstimate

	// Rank and Nullity describe the solved system when the algorithm
	// solves one (Correlation-complete); Nullity > 0 means some subsets
	// were unidentifiable. ClampedRows counts equations whose empirical
	// frequency was zero-clamped before the logarithm.
	Rank, Nullity int
	ClampedRows   int

	// Detail is the full Correlation-complete result when that
	// algorithm produced this estimate, enabling joint-probability
	// queries (CongestedProb) beyond the flattened fields above. Nil
	// for the other estimators.
	Detail *core.Result
}

// LinkCongestProb returns the estimated P(link congested) and whether
// the algorithm identified it (vs a fallback estimate).
func (e *Estimate) LinkCongestProb(link int) (p float64, exact bool) {
	return e.LinkProb[link], e.LinkExact[link]
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

// registry holds the known estimators by name. It is populated at init
// time and read-only afterwards, so lookups need no locking.
var registry = map[string]Estimator{}

func register(e Estimator) {
	if _, dup := registry[e.Name()]; dup {
		panic("estimator: duplicate registration of " + e.Name())
	}
	registry[e.Name()] = e
}

// Names returns the registered estimator names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New returns the estimator registered under name. The error lists the
// known names, so it is directly presentable to a user.
func New(name string) (Estimator, error) {
	if e, ok := registry[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("estimator: unknown algorithm %q (known: %v)", name, Names())
}

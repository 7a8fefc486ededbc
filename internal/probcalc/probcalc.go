// Package probcalc implements the two baseline Probability Computation
// algorithms the paper compares against (§5.4):
//
//   - Independence: the Probability Computation step of CLINK [11]. It
//     assumes all links are independent (Assumption 4), so every
//     equation splits per link; it solves a log-linear least-squares
//     system over single-path and path-pair observations.
//   - Correlation-heuristic: the earlier heuristic of [9]. Under the
//     Correlation Sets assumption it estimates each link's good
//     probability with a conditional-ratio estimator built from many
//     redundant empirical frequencies — accurate when the ratios are
//     well conditioned, but noticeably noisier than Correlation-complete
//     on sparse topologies, where the denominators are small (this is
//     exactly the behaviour Fig. 4(b) reports).
//
// Both fit the same kind of system as Correlation-complete,
// log P̂(path set good) = Σ log g(column), and differ from it only in
// their rows and their solve. core builds the system: Independence
// hands its per-link rows to core.Identify and least-squares-solves
// the identifiable part; the heuristic decomposes its path sets with
// core.Rows, exactly as Correlation-complete registers its subsets, and
// solves by substitution. Both report, like the core algorithm, a
// per-link congestion probability with the same observable fallback
// for links they cannot identify.
package probcalc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/topology"
)

// LinkResult is a per-link congestion probability estimate.
type LinkResult struct {
	// Prob[e] estimates P(X_e = 1). Exact[e] reports whether it came
	// from the algorithm proper (true) or from the observable fallback
	// (false).
	Prob  []float64
	Exact []bool

	// PotentiallyCongested marks links not traversed by an always-good
	// path (the evaluation set of Fig. 4).
	PotentiallyCongested *bitset.Set
}

// IndependenceConfig tunes the Independence baseline.
type IndependenceConfig struct {
	// PairsPerLink is how many path pairs are added per link to raise
	// the system rank beyond single-path equations (Fig. 2(a) uses
	// pairs). 0 means the default of 4.
	PairsPerLink int
	// GlobalPairs is how many uniformly random path pairs are added
	// (Fig. 2(a) also uses pairs of non-intersecting paths, e.g.
	// {p1, p3}). 0 means the default of one per path; -1 disables.
	GlobalPairs int
	// AlwaysGoodTol mirrors core.Config.
	AlwaysGoodTol float64
	// Seed drives pair sampling.
	Seed int64
}

// Independence computes per-link congestion probabilities assuming link
// independence (CLINK's Probability Computation step). rec may be any
// observation store: a stream.Window sized to a full monitoring period
// or the live sliding window. ctx cancels a long run (nil means
// context.Background()).
func Independence(ctx context.Context, top *topology.Topology, rec observe.Store, cfg IndependenceConfig) (*LinkResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rec.NumPaths() != top.NumPaths() {
		return nil, fmt.Errorf("probcalc: recorder/topology path mismatch")
	}
	pairs := cfg.PairsPerLink
	if pairs <= 0 {
		pairs = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	alwaysGood := rec.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	pot := top.PotentiallyCongestedLinks(top.LinksOf(alwaysGood))

	// Column universe: potentially congested links covered by a path.
	colOf := make([]int, top.NumLinks())
	var cols []int
	for e := 0; e < top.NumLinks(); e++ {
		colOf[e] = -1
		if pot.Contains(e) && !top.LinkPaths(e).IsEmpty() {
			colOf[e] = len(cols)
			cols = append(cols, e)
		}
	}

	var rows [][]int
	var rhs []float64
	addRow := func(pathSet *bitset.Set) {
		var r []int
		top.LinksOf(pathSet).ForEach(func(li int) bool {
			if colOf[li] >= 0 {
				r = append(r, colOf[li])
			}
			return true
		})
		if len(r) == 0 {
			return
		}
		lp, _ := rec.LogGoodFreq(pathSet)
		rows = append(rows, r)
		rhs = append(rhs, lp)
	}
	// Single-path equations.
	one := bitset.New(top.NumPaths())
	for p := 0; p < top.NumPaths(); p++ {
		if alwaysGood.Contains(p) {
			continue
		}
		one.Clear()
		one.Add(p)
		addRow(one)
	}
	// Path-pair equations per link (Fig. 2(a) style), sampled.
	for _, e := range cols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps := top.LinkPaths(e).Indices()
		if len(ps) < 2 {
			continue
		}
		for k := 0; k < pairs; k++ {
			i, j := rng.Intn(len(ps)), rng.Intn(len(ps))
			if i == j {
				continue
			}
			addRow(bitset.FromIndices(top.NumPaths(), ps[i], ps[j]))
		}
	}
	// Uniformly random path pairs (Fig. 2(a) also pairs disjoint paths).
	globalPairs := cfg.GlobalPairs
	if globalPairs == 0 {
		globalPairs = top.NumPaths()
	}
	for k := 0; k < globalPairs; k++ {
		i, j := rng.Intn(top.NumPaths()), rng.Intn(top.NumPaths())
		if i == j || alwaysGood.Contains(i) || alwaysGood.Contains(j) {
			continue
		}
		addRow(bitset.FromIndices(top.NumPaths(), i, j))
	}

	// core.Identify picks the identifiable columns and factors the rows
	// that span them; one least-squares solve over those rows'
	// right-hand sides gives g = min(exp(x), 1) per identified column.
	colMap, active, qr, err := core.Identify(ctx, rows, len(cols))
	if err != nil {
		return nil, err
	}
	g := make([]float64, len(cols))
	ident := make([]bool, len(cols))
	if qr != nil {
		var b []float64
		for ri, a := range active {
			if a {
				b = append(b, rhs[ri])
			}
		}
		x, err := qr.SolveLeastSquares(b)
		if err != nil {
			return nil, err
		}
		for k, c := range colMap {
			g[c], ident[c] = min(math.Exp(x[k]), 1), true
		}
	}
	res := &LinkResult{
		Prob:                 make([]float64, top.NumLinks()),
		Exact:                make([]bool, top.NumLinks()),
		PotentiallyCongested: pot,
	}
	for e := 0; e < top.NumLinks(); e++ {
		fillLink(res, top, rec, pot, e, func() (float64, bool) {
			if colOf[e] >= 0 && ident[colOf[e]] {
				return g[colOf[e]], true
			}
			return 0, false
		})
	}
	return res, nil
}

// HeuristicConfig tunes the Correlation-heuristic baseline.
type HeuristicConfig struct {
	// AlwaysGoodTol mirrors core.Config.
	AlwaysGoodTol float64
	// Sweeps is the number of substitution sweeps (0 = default 50).
	Sweeps int
}

// CorrelationHeuristic estimates each link's congestion probability
// under the Correlation Sets assumption with the substitution heuristic
// of [9]: it forms the same log-linear equations as Correlation-complete
// (single paths plus one isolation path set per correlation subset),
// initializes every subset's good probability with its tightest
// observable lower bound (g(E) ≥ P̂(path set good) for any equation
// mentioning E, since the other factors are ≤ 1), and then repeatedly
// substitutes current estimates into each equation to re-derive each
// unknown.
//
// Unlike Correlation-complete it never solves a joint system: each
// unknown is peeled out of individual noisy equations, so estimation
// errors propagate through substitution chains. On dense topologies the
// chains are short and the heuristic is accurate; on sparse topologies
// the redundant, poorly-conditioned equations make it markedly noisier
// — the behaviour Fig. 4(b) reports.
//
// rec may be any observation store; ctx cancels a long run (nil means
// context.Background()).
func CorrelationHeuristic(ctx context.Context, top *topology.Topology, rec observe.Store, cfg HeuristicConfig) (*LinkResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rec.NumPaths() != top.NumPaths() {
		return nil, fmt.Errorf("probcalc: recorder/topology path mismatch")
	}
	sweeps := cfg.Sweeps
	if sweeps <= 0 {
		sweeps = 50
	}
	alwaysGood := rec.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	pot := top.PotentiallyCongestedLinks(top.LinksOf(alwaysGood))

	// Path sets: single paths, then one isolation set per potentially
	// congested link — paths through e that avoid the rest of e's
	// correlation set. Their columns are the per-correlation-set
	// subsets core.Rows registers, exactly like the core algorithm's
	// registration (the heuristic differs in the *solving*); the
	// registration order fixes both the column indices and the float
	// summation order of the sweeps.
	var pathSets []*bitset.Set
	for p := 0; p < top.NumPaths(); p++ {
		if !alwaysGood.Contains(p) {
			pathSets = append(pathSets, bitset.FromIndices(top.NumPaths(), p))
		}
	}
	for e := 0; e < top.NumLinks(); e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !pot.Contains(e) || top.LinkPaths(e).IsEmpty() {
			continue
		}
		comp := bitset.New(top.NumLinks())
		for _, li := range top.CorrSetLinks(top.CorrSetOf(e)) {
			if li != e && pot.Contains(li) {
				comp.Add(li)
			}
		}
		iso := top.LinkPaths(e).Difference(top.PathsOf(comp))
		if !iso.IsEmpty() {
			pathSets = append(pathSets, iso)
		}
	}
	allRows, index := core.Rows(top, pot, pathSets)
	var rows [][]int
	var rhs []float64
	for i, cols := range allRows {
		if len(cols) == 0 {
			continue
		}
		lp, _ := rec.LogGoodFreq(pathSets[i])
		rows = append(rows, cols)
		rhs = append(rhs, lp)
	}

	// Initialization: tightest observable lower bound per subset.
	logG := make([]float64, len(index))
	seen := make([]bool, len(index))
	for ri, cols := range rows {
		for _, c := range cols {
			if !seen[c] || rhs[ri] > logG[c] {
				logG[c] = rhs[ri]
				seen[c] = true
			}
		}
	}
	// Substitution sweeps (Jacobi with averaging): re-derive each
	// unknown from every equation mentioning it using the current
	// values of the others.
	sum := make([]float64, len(index))
	cnt := make([]int, len(index))
	const damping = 0.5 // undamped substitution oscillates on pair equations
	for s := 0; s < sweeps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range sum {
			sum[i], cnt[i] = 0, 0
		}
		for ri, cols := range rows {
			total := 0.0
			for _, c := range cols {
				total += logG[c]
			}
			for _, c := range cols {
				cand := rhs[ri] - (total - logG[c])
				if cand > 0 {
					cand = 0 // probabilities never exceed 1
				}
				sum[c] += cand
				cnt[c]++
			}
		}
		for i := range logG {
			if cnt[i] > 0 {
				logG[i] += damping * (sum[i]/float64(cnt[i]) - logG[i])
			}
		}
	}

	res := &LinkResult{
		Prob:                 make([]float64, top.NumLinks()),
		Exact:                make([]bool, top.NumLinks()),
		PotentiallyCongested: pot,
	}
	single := bitset.New(top.NumLinks())
	for e := 0; e < top.NumLinks(); e++ {
		e := e
		fillLink(res, top, rec, pot, e, func() (float64, bool) {
			single.Clear()
			single.Add(e)
			i, ok := index[single.Key()]
			if !ok || !seen[i] {
				return 0, false
			}
			return math.Exp(logG[i]), true
		})
	}
	return res, nil
}

// fillLink applies the common per-link protocol: always-good links are
// exactly 0; otherwise use the algorithm's estimate when identified,
// else the shared observable fallback (core.FallbackLinkProb).
func fillLink(res *LinkResult, top *topology.Topology, rec observe.Store, pot *bitset.Set, e int, est func() (float64, bool)) {
	if !pot.Contains(e) {
		res.Prob[e], res.Exact[e] = 0, true
		return
	}
	if g, ok := est(); ok {
		res.Prob[e], res.Exact[e] = clamp01(1-g), true
		return
	}
	res.Prob[e], res.Exact[e] = core.FallbackLinkProb(top, rec, pot, e), false
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Package inference implements the three Boolean Inference algorithms
// whose limitations Section 3 of the paper demonstrates:
//
//   - Sparsity (originally Tomo [6], Duffield's tree algorithm [8]
//     adapted to meshes): assumes Homogeneity and greedily blames the
//     links that explain the most congested paths.
//   - Bayesian-Independence (originally CLINK [11]): learns per-link
//     congestion probabilities assuming Independence, then solves a MAP
//     problem per interval with a greedy weighted set cover (the exact
//     problem is NP-complete).
//   - Bayesian-Correlation ([10], developed for the paper): like
//     Bayesian-Independence but its Probability Computation step is the
//     Correlation-complete algorithm, and its per-interval step scores
//     candidates with joint subset probabilities where identifiable.
//
// Every algorithm implements the Algorithm interface: Prepare consumes
// the whole monitoring period once, Infer diagnoses one interval.
package inference

import (
	"context"
	"math"
	"sync"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/probcalc"
	"repro/internal/topology"
)

// Algorithm is a Boolean Inference algorithm: given the congested paths
// of one interval, infer the congested links (the problem of §2).
type Algorithm interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Prepare runs once over the recorded monitoring period (the
	// Probability Computation step of the Bayesian algorithms; a no-op
	// for Sparsity). rec may be any observation store — a stream.Window
	// sized to the period or a live one; ctx cancels a long preparation.
	Prepare(ctx context.Context, top *topology.Topology, rec observe.Store) error
	// Infer returns the links inferred congested during an interval in
	// which exactly the given paths were observed congested.
	Infer(congestedPaths *bitset.Set) *bitset.Set
	// Assumptions lists the algorithm's sources of inaccuracy (the rows
	// of Table 2 that apply to it).
	Assumptions() []string
}

// candidateSetup computes the per-interval candidate machinery shared
// by all three algorithms: links on good paths are exonerated
// (Separability), the remaining links on congested paths are candidate
// culprits.
type candidateSetup struct {
	top *topology.Topology
}

// inferScratch pools the per-interval buffers of the candidate
// computation and the greedy cover. The figure drivers call Infer once
// per interval per trial, so these transients dominated the
// experiment's allocation profile; a pool keeps Infer safe for the
// concurrent trials of the experiment engine.
type inferScratch struct {
	numLinks, numPaths int

	goodPaths  *bitset.Set
	exonerated *bitset.Set
	cands      *bitset.Set
	uncovered  *bitset.Set
	candList   []int
}

var inferPool = sync.Pool{New: func() any { return &inferScratch{} }}

func getInferScratch(top *topology.Topology) *inferScratch {
	sc := inferPool.Get().(*inferScratch)
	nl, np := top.NumLinks(), top.NumPaths()
	if sc.numLinks != nl || sc.numPaths != np {
		*sc = inferScratch{
			numLinks: nl, numPaths: np,
			goodPaths:  bitset.New(np),
			exonerated: bitset.New(nl),
			cands:      bitset.New(nl),
			uncovered:  bitset.New(np),
		}
	}
	return sc
}

func putInferScratch(sc *inferScratch) { inferPool.Put(sc) }

// candidates returns the candidate links: the links on congested paths
// minus those exonerated by a good path (Separability). The result
// lives in sc and is valid until the scratch is released.
func (c *candidateSetup) candidates(sc *inferScratch, congestedPaths *bitset.Set) *bitset.Set {
	sc.goodPaths.Clear()
	for p := 0; p < c.top.NumPaths(); p++ {
		if !congestedPaths.Contains(p) {
			sc.goodPaths.Add(p)
		}
	}
	sc.exonerated.Clear()
	sc.goodPaths.ForEach(func(pi int) bool {
		sc.exonerated.UnionWith(c.top.PathLinks(pi))
		return true
	})
	sc.cands.Clear()
	congestedPaths.ForEach(func(pi int) bool {
		sc.cands.UnionWith(c.top.PathLinks(pi))
		return true
	})
	sc.cands.AndNotInto(sc.exonerated, sc.cands)
	return sc.cands
}

// greedyCover selects links from cands until every congested path is
// covered (or no candidate covers a remaining path), choosing at each
// step the candidate minimizing score(link, newlyCovered). Lower scores
// win; ties break toward smaller link IDs for determinism.
func greedyCover(sc *inferScratch, top *topology.Topology, congestedPaths, cands *bitset.Set,
	score func(link, newlyCovered int, chosen *bitset.Set) float64) *bitset.Set {

	chosen := bitset.New(top.NumLinks()) // returned to the caller: not scratch
	uncovered := congestedPaths.IntersectInto(congestedPaths, sc.uncovered)
	sc.candList = cands.AppendIndices(sc.candList[:0])
	candList := sc.candList
	for !uncovered.IsEmpty() {
		best, bestScore, bestCov := -1, math.Inf(1), 0
		for _, e := range candList {
			if chosen.Contains(e) {
				continue
			}
			cov := top.LinkPaths(e).IntersectCount(uncovered)
			if cov == 0 {
				continue
			}
			s := score(e, cov, chosen)
			if s < bestScore || (s == bestScore && best >= 0 && e < best) {
				best, bestScore, bestCov = e, s, cov
			}
		}
		if best < 0 {
			break // remaining congested paths unexplainable (observation noise)
		}
		_ = bestCov
		chosen.Add(best)
		uncovered.AndNotInto(top.LinkPaths(best), uncovered)
	}
	return chosen
}

// ---------------------------------------------------------------------
// Sparsity
// ---------------------------------------------------------------------

// Sparsity is the Homogeneity-based greedy algorithm (Tomo): few
// congested links explain many congested paths, so it repeatedly blames
// the candidate link traversing the most unexplained congested paths.
type Sparsity struct {
	setup candidateSetup
}

// NewSparsity returns a Sparsity inferencer.
func NewSparsity() *Sparsity { return &Sparsity{} }

// Name implements Algorithm.
func (s *Sparsity) Name() string { return "Sparsity" }

// Prepare implements Algorithm; Sparsity needs no monitoring period.
func (s *Sparsity) Prepare(_ context.Context, top *topology.Topology, _ observe.Store) error {
	s.setup.top = top
	return nil
}

// Infer implements Algorithm.
func (s *Sparsity) Infer(congestedPaths *bitset.Set) *bitset.Set {
	sc := getInferScratch(s.setup.top)
	defer putInferScratch(sc)
	cands := s.setup.candidates(sc, congestedPaths)
	// Maximize coverage == minimize its negation; Homogeneity means no
	// other weighting.
	return greedyCover(sc, s.setup.top, congestedPaths, cands,
		func(_, newlyCovered int, _ *bitset.Set) float64 {
			return -float64(newlyCovered)
		})
}

// Assumptions implements Algorithm (Table 2, column "Spar.").
func (s *Sparsity) Assumptions() []string {
	return []string{"Separability", "E2E Monitoring", "Homogeneity", "Identifiability", "Other approx./heuristic"}
}

// ---------------------------------------------------------------------
// Bayesian-Independence (CLINK)
// ---------------------------------------------------------------------

// BayesianIndependence learns per-link probabilities under the
// Independence assumption (step 1) and per interval picks an
// approximately most-likely solution with a greedy weighted set cover
// (step 2); the weight of blaming link e is log((1−p_e)/p_e), so likely
// congested links are cheap.
type BayesianIndependence struct {
	setup candidateSetup
	cfg   probcalc.IndependenceConfig
	probs *probcalc.LinkResult
}

// NewBayesianIndependence returns a CLINK-style inferencer.
func NewBayesianIndependence(cfg probcalc.IndependenceConfig) *BayesianIndependence {
	return &BayesianIndependence{cfg: cfg}
}

// Name implements Algorithm.
func (b *BayesianIndependence) Name() string { return "Bayesian-Independence" }

// Prepare implements Algorithm: the Probability Computation step.
func (b *BayesianIndependence) Prepare(ctx context.Context, top *topology.Topology, rec observe.Store) error {
	b.setup.top = top
	res, err := probcalc.Independence(ctx, top, rec, b.cfg)
	if err != nil {
		return err
	}
	b.probs = res
	return nil
}

// linkWeight converts probability p into the set-cover weight
// log((1−p)/p), clamped away from 0 and 1.
func linkWeight(p float64) float64 {
	const eps = 1e-4
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return math.Log((1 - p) / p)
}

// Infer implements Algorithm.
func (b *BayesianIndependence) Infer(congestedPaths *bitset.Set) *bitset.Set {
	sc := getInferScratch(b.setup.top)
	defer putInferScratch(sc)
	cands := b.setup.candidates(sc, congestedPaths)
	return greedyCover(sc, b.setup.top, congestedPaths, cands,
		func(e, newlyCovered int, _ *bitset.Set) float64 {
			return linkWeight(b.probs.Prob[e]) / float64(newlyCovered)
		})
}

// Assumptions implements Algorithm (Table 2, "Bayesian-Indep.").
func (b *BayesianIndependence) Assumptions() []string {
	return []string{"Separability", "E2E Monitoring", "Independence", "Identifiability", "Other approx./heuristic"}
}

// ---------------------------------------------------------------------
// Bayesian-Correlation
// ---------------------------------------------------------------------

// BayesianCorrelation replaces step 1 with the Correlation-complete
// algorithm (Assumption 5 instead of Independence) and makes step 2
// correlation-aware: the cost of blaming a link already correlated with
// a blamed sibling uses the conditional probability
// P(e congested | blamed siblings congested) derived from the joint
// subset probabilities, so correlated links are blamed together.
type BayesianCorrelation struct {
	setup candidateSetup
	cfg   core.Config
	res   *core.Result
}

// NewBayesianCorrelation returns the paper's new inferencer [10].
func NewBayesianCorrelation(cfg core.Config) *BayesianCorrelation {
	return &BayesianCorrelation{cfg: cfg}
}

// Name implements Algorithm.
func (b *BayesianCorrelation) Name() string { return "Bayesian-Correlation" }

// Prepare implements Algorithm.
func (b *BayesianCorrelation) Prepare(ctx context.Context, top *topology.Topology, rec observe.Store) error {
	b.setup.top = top
	res, err := core.Compute(ctx, top, rec, b.cfg)
	if err != nil {
		return err
	}
	b.res = res
	return nil
}

// conditional returns P(e congested | the already chosen links of e's
// correlation set congested), falling back to the marginal when the
// joint probabilities are not identifiable.
func (b *BayesianCorrelation) conditional(e int, chosen *bitset.Set) float64 {
	marginal, _ := b.res.LinkCongestProbOrFallback(e)
	cs := b.setup.top.CorrSetOf(e)
	sibs := bitset.New(b.setup.top.NumLinks())
	chosen.ForEach(func(li int) bool {
		if b.setup.top.CorrSetOf(li) == cs {
			sibs.Add(li)
		}
		return true
	})
	if sibs.IsEmpty() || sibs.Count() > 8 {
		// Inclusion–exclusion over many siblings is exponential; past 8
		// the joint estimate is too noisy to help anyway.
		return marginal
	}
	pSibs, ok1 := b.res.CongestedProb(sibs)
	withE := sibs.Clone()
	withE.Add(e)
	pJoint, ok2 := b.res.CongestedProb(withE)
	if !ok1 || !ok2 || pSibs <= 1e-12 {
		return marginal
	}
	return pJoint / pSibs
}

// Infer implements Algorithm.
func (b *BayesianCorrelation) Infer(congestedPaths *bitset.Set) *bitset.Set {
	sc := getInferScratch(b.setup.top)
	defer putInferScratch(sc)
	cands := b.setup.candidates(sc, congestedPaths)
	return greedyCover(sc, b.setup.top, congestedPaths, cands,
		func(e, newlyCovered int, chosen *bitset.Set) float64 {
			return linkWeight(b.conditional(e, chosen)) / float64(newlyCovered)
		})
}

// Assumptions implements Algorithm (Table 2, "Bayesian-Corr.").
func (b *BayesianCorrelation) Assumptions() []string {
	return []string{"Separability", "E2E Monitoring", "Correlation Sets", "Identifiability++", "Other approx./heuristic"}
}

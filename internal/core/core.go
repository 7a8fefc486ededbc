// Package core implements the paper's primary contribution: the
// Correlation-complete algorithm for the Congestion Probability
// Computation problem (§5).
//
// Under Separability (Assumption 1), E2E Monitoring (Assumption 2) and
// Correlation Sets (Assumption 5), the probability that all paths of a
// path set P are simultaneously good factors per correlation set
// (Eq. 1):
//
//	P(∩_{p∈P} Y_p=0) = Π_{C∈C*} P(∩_{e∈Links(P)∩C} X_e=0)
//
// Taking logarithms turns each path set into a linear equation whose
// unknowns are log g(E), where g(E) is the probability that all links
// of the potentially congested correlation subset E are good. The
// algorithm:
//
//  1. determines the potentially congested links from the always-good
//     paths (§5.2);
//  2. seeds the system with one path set Paths(E) \ Paths(Ē) per
//     enumerated subset E (Algorithm 1, lines 1–5);
//  3. grows the system by scanning, in descending Hamming weight of the
//     null-space rows, for path sets whose equations leave the current
//     row space, updating the null space incrementally with the
//     rank-one projection of Algorithm 2 (lines 6–22);
//  4. solves the selected equations by least squares in the log domain
//     against the empirical frequencies, and reports each subset's
//     g(E); subsets whose direction remains in the final null space are
//     reported as unidentifiable rather than guessed.
//
// The MaxSubsetSize knob is the paper's resource control (§4): only
// subsets up to that size are enumerated and solved for.
package core

import (
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/observe"
	"repro/internal/topology"
)

// Config tunes the Correlation-complete algorithm.
type Config struct {
	// MaxSubsetSize bounds the size of the correlation subsets whose
	// congestion probability is computed (the paper's "sets of one,
	// two, or three links"). 0 means unbounded.
	MaxSubsetSize int

	// AlwaysGoodTol is the congested-fraction tolerance under which a
	// path counts as always good. 0 is the paper's strict definition;
	// a small positive value absorbs probing false positives.
	AlwaysGoodTol float64

	// MaxEnumPathSets caps, per correlation subset, how many candidate
	// path sets the augmentation loop enumerates (the paper enumerates
	// all 2^n2; the cap bounds the inner loop on large topologies).
	// 0 means the default of 128.
	MaxEnumPathSets int

	// Concurrency does nothing.
	//
	// Deprecated: ignored; kept until bench/ stops naming it.
	Concurrency int

	// RestrictCorrSets restricts the solve to the listed correlation
	// sets (ascending indices) and the paths covering their links —
	// one shard of a topology.Partition. The restriction must be closed
	// under path coverage (no path may straddle the boundary), which is
	// exactly what a partition shard guarantees; the solved equations
	// and subset probabilities are then the shard's block of the full
	// system. nil means the whole topology.
	RestrictCorrSets []int

	// NumericalPlanRepair enables the tier-2 repair (Plan.RepairNumeric)
	// for drift that moves the good-link frontier: the retained QR
	// factorization is patched column-by-column instead of rebuilt.
	// Off by default because it trades the bit-identity contract for
	// coverage — a patched epoch is numerically, not bitwise, equivalent
	// to the rebuild it skipped (see DESIGN.md "Plan repair"). Tier-1
	// repair still runs first and stays bit-identical.
	NumericalPlanRepair bool

	// NumericalRepairMaxFrac caps how large a frontier move the tier-2
	// repair absorbs: when the potentially-congested link set's
	// symmetric difference exceeds this fraction of the (union) link
	// universe, the repair declines and the cold rebuild runs — past
	// that point patching costs more than it saves and drifts further
	// from the rebuild's structural selection. 0 means the default
	// (DefaultNumericalRepairMaxFrac).
	NumericalRepairMaxFrac float64
}

// DefaultNumericalRepairMaxFrac is the Δ gate used when
// Config.NumericalRepairMaxFrac is zero: frontier moves touching more
// than a quarter of the potentially-congested universe rebuild cold.
const DefaultNumericalRepairMaxFrac = 0.25

// DefaultConfig returns the configuration used by the experiments:
// subsets up to size 2, strict always-good definition.
func DefaultConfig() Config {
	return Config{MaxSubsetSize: 2}
}

// SubsetResult is the computed probability of one correlation subset.
type SubsetResult struct {
	Links        *bitset.Set // the subset E
	CorrSet      int         // its correlation set
	GoodProb     float64     // g(E) = P(all links in E good); NaN if not identifiable
	Identifiable bool
}

// Result is the output of the Correlation-complete algorithm.
type Result struct {
	Subsets []SubsetResult
	index   map[string]int // subset key -> index into Subsets
	shape   uint64         // structure token (see newShape)

	// PathSets are the selected path sets P̂, in selection order; one
	// equation per entry.
	PathSets []*bitset.Set

	// Rank and Nullity describe the final system: Nullity > 0 means
	// Identifiability++ failed for some subsets.
	Rank, Nullity int

	// PotentiallyCongested holds the links not traversed by any
	// always-good path; AlwaysGoodLinks is its complement among links
	// covered by at least one path.
	PotentiallyCongested *bitset.Set
	AlwaysGoodLinks      *bitset.Set

	// ClampedRows counts equations whose empirical good frequency was
	// zero and had to be clamped before taking the logarithm.
	ClampedRows int

	top *topology.Topology
	rec observe.Store
}

// SubsetGoodProb returns g(E) for the subset with exactly the given
// links. ok is false when the subset is unknown or unidentifiable.
func (r *Result) SubsetGoodProb(links *bitset.Set) (float64, bool) {
	sc := r.getQueryScratch()
	defer putQueryScratch(sc)
	return r.subsetGoodProb(sc, links)
}

func (r *Result) subsetGoodProb(sc *queryScratch, links *bitset.Set) (float64, bool) {
	// Links on always-good paths contribute a factor of 1: strip them.
	eff := links.IntersectInto(r.PotentiallyCongested, sc.eff)
	if eff.IsEmpty() {
		return 1, true
	}
	i, ok := sc.lookup(r, eff)
	if !ok || !r.Subsets[i].Identifiable {
		return math.NaN(), false
	}
	return r.Subsets[i].GoodProb, true
}

// LinkGoodProb returns g({e}).
func (r *Result) LinkGoodProb(e int) (float64, bool) {
	sc := r.getQueryScratch()
	defer putQueryScratch(sc)
	return r.linkGoodProb(sc, e)
}

func (r *Result) linkGoodProb(sc *queryScratch, e int) (float64, bool) {
	sc.oneLink.Clear()
	sc.oneLink.Add(e)
	return r.subsetGoodProb(sc, sc.oneLink)
}

// CongestedProb returns P(all links in E congested) for an arbitrary
// link set E (possibly spanning correlation sets), via
// inclusion–exclusion over E's subsets:
//
//	P(∩ X_e=1) = Σ_{S⊆E} (−1)^{|S|} P(∩_{e∈S} X_e=0)
//
// where each P(∩_{e∈S} X_e=0) factors per correlation set. ok is false
// if any required sub-subset probability is unavailable. E must have at
// most 20 links.
func (r *Result) CongestedProb(links *bitset.Set) (float64, bool) {
	ids := links.Indices()
	if len(ids) > 20 {
		return math.NaN(), false
	}
	sc := r.getQueryScratch()
	defer putQueryScratch(sc)
	total := 0.0
	for mask := 0; mask < 1<<len(ids); mask++ {
		sc.links.Clear()
		bits := 0
		for b, li := range ids {
			if mask&(1<<b) != 0 {
				sc.links.Add(li)
				bits++
			}
		}
		g, ok := r.goodProbFactored(sc, sc.links)
		if !ok {
			return math.NaN(), false
		}
		if bits%2 == 0 {
			total += g
		} else {
			total -= g
		}
	}
	// Inclusion–exclusion over noisy estimates can drift slightly
	// outside [0,1].
	return clamp01(total), true
}

// goodProbFactored evaluates P(all links in S good) by factoring S per
// correlation set and multiplying the per-set subset probabilities.
// The factoring runs in first-encounter order so the float
// multiplication order — and hence the exact result bits — never
// depends on iteration order.
func (r *Result) goodProbFactored(sc *queryScratch, s *bitset.Set) (float64, bool) {
	eff := s.IntersectInto(r.PotentiallyCongested, sc.eff)
	if eff.IsEmpty() {
		return 1, true
	}
	sc.decomposePerSet(r, eff)
	g := 1.0
	for _, c := range sc.setOrder {
		i, ok := sc.lookup(r, sc.perSet[c])
		if !ok || !r.Subsets[i].Identifiable {
			return math.NaN(), false
		}
		g *= r.Subsets[i].GoodProb
	}
	return g, true
}

// LinkCongestProbOrFallback returns the best available estimate of
// P(X_e = 1) for every link: the identified 1−g({e}) when available,
// 0 for links on always-good paths, and otherwise the observable
// fallback FallbackLinkProb. exact reports whether the identified value
// was used.
func (r *Result) LinkCongestProbOrFallback(e int) (p float64, exact bool) {
	if !r.PotentiallyCongested.Contains(e) {
		return 0, true
	}
	sc := r.getQueryScratch()
	defer putQueryScratch(sc)
	if g, ok := r.linkGoodProb(sc, e); ok {
		return clamp01(1 - g), true
	}
	// The singleton is unidentifiable; fall back along a chain of
	// weaker observables.
	//
	// Common-cause evidence: when e is covered by three or more paths,
	// the only plausible reason for ALL of them to congest in the same
	// intervals repeatedly is a shared cause. The joint frequency,
	// discounted by the strongest *identified* shared cause (an
	// identified subset whose coverage contains e's), estimates e's own
	// contribution; for an innocent e with no congested co-cover it is
	// ≈0 because its paths congest independently of one another.
	if cover := r.top.LinkPaths(e); cover.Count() >= 8 {
		ub := r.rec.AllCongestedFreq(cover)
		explained := 0.0
		if ub > 0 {
			for _, s := range r.Subsets {
				if !s.Identifiable || s.Links.Contains(e) {
					continue
				}
				if p := 1 - s.GoodProb; p > explained {
					sc.paths.Clear()
					s.Links.ForEach(func(li int) bool {
						sc.paths.UnionWith(r.top.LinkPaths(li))
						return true
					})
					if cover.SubsetOf(sc.paths) {
						explained = p
					}
				}
			}
		}
		return clamp01(ub - explained), false
	}
	if p, ok := r.subsetInformedFallback(sc, e); ok {
		return p, false
	}
	if p, ok := r.residualFallback(sc, e); ok {
		return p, false
	}
	return FallbackLinkProb(r.top, r.rec, r.PotentiallyCongested, e), false
}

// residualFallback estimates P(X_e=1) for a link none of whose subsets
// were identified, by discounting each covering path's observed
// congestion by the identified factors of its equation: from Eq. 1,
// P̂(p good) = Π identified g(E) · Π unidentified g(E), so the
// unidentified subsets of p jointly account for a residual congestion
// mass 1 − P̂(p good)/Π_identified g(E); that residual is split
// uniformly across the links of p's unidentified subsets (Homogeneity
// prior), and the tightest covering path wins.
func (r *Result) residualFallback(sc *queryScratch, e int) (float64, bool) {
	cover := r.top.LinkPaths(e)
	if cover.IsEmpty() {
		return 0, false
	}
	best, found := 1.0, false
	one := sc.onePath
	cover.ForEach(func(pi int) bool {
		one.Clear()
		one.Add(pi)
		links := r.top.PathLinks(pi).IntersectInto(r.PotentiallyCongested, sc.links)
		// Decompose the path's equation per correlation set, in
		// first-encounter order for a deterministic product.
		sc.decomposePerSet(r, links)
		prodKnown := 1.0
		unknownLinks := 0
		for _, c := range sc.setOrder {
			sub := sc.perSet[c]
			if j, ok := sc.lookup(r, sub); ok && r.Subsets[j].Identifiable {
				prodKnown *= r.Subsets[j].GoodProb
			} else {
				unknownLinks += sub.Count()
			}
		}
		if unknownLinks == 0 || prodKnown < 1e-6 {
			return true
		}
		residual := clamp01(1 - r.rec.GoodFreq(one)/prodKnown)
		split := residual / float64(unknownLinks)
		if split < best {
			best, found = split, true
		}
		return true
	})
	if !found {
		return 0, false
	}
	return best, true
}

// subsetInformedFallback estimates P(X_e=1) from the smallest
// identified correlation subset S containing e. When the complement
// part S∖{e} is itself identified, the conditional estimate
// 1 − g(S)/g(S∖{e}) is exact whenever e is independent of its subset
// siblings (and correctly ≈0 when e is always good); otherwise the
// subset's congestion mass 1 − g(S) is split uniformly over its
// members.
func (r *Result) subsetInformedFallback(sc *queryScratch, e int) (float64, bool) {
	best := -1
	for i, s := range r.Subsets {
		if !s.Identifiable || !s.Links.Contains(e) || s.Links.Count() < 2 {
			continue
		}
		if best < 0 || s.Links.Count() < r.Subsets[best].Links.Count() {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	s := r.Subsets[best]
	rest := s.Links.IntersectInto(s.Links, sc.links)
	rest.Remove(e)
	if j, ok := sc.lookup(r, rest); ok && r.Subsets[j].Identifiable && r.Subsets[j].GoodProb > 1e-9 {
		return clamp01(1 - s.GoodProb/r.Subsets[j].GoodProb), true
	}
	return clamp01((1 - s.GoodProb) / float64(s.Links.Count())), true
}

// FallbackLinkProb is the shared estimator for links no algorithm can
// identify: the frequency with which all of e's covering paths were
// simultaneously congested (an upper bound on P(X_e=1), since e
// congested forces them all congested by Separability), split uniformly
// across the potentially congested links of e's tightest covering path
// — a Homogeneity-style prior that avoids blaming every link on a
// congested path for the whole path's congestion.
func FallbackLinkProb(top *topology.Topology, rec observe.Store, potentiallyCongested *bitset.Set, e int) float64 {
	cover := top.LinkPaths(e)
	if cover.IsEmpty() {
		return 0
	}
	upper := rec.AllCongestedFreq(cover)
	if upper == 0 {
		return 0
	}
	minCand := top.NumLinks()
	cover.ForEach(func(pi int) bool {
		c := top.PathLinks(pi).IntersectCount(potentiallyCongested)
		if c < minCand {
			minCand = c
		}
		return true
	})
	if minCand < 1 {
		minCand = 1
	}
	return upper / float64(minCand)
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

// sortSubsetsByNullWeight returns subset indices ordered by descending
// Hamming weight of the corresponding rows of N (the paper's
// SortByHammingWeight): subsets whose null-space row has many non-zero
// entries are most likely to yield a rank-increasing path set.
// Both output slices are caller-provided (len == count) so the
// augmentation loop can reuse its arena buffers round after round.
func sortSubsetsByNullWeight(n *linalg.Matrix, count int, order, weights []int) []int {
	for i := 0; i < count; i++ {
		weights[i] = 0
	}
	for i := 0; i < count && i < n.Rows; i++ {
		w := 0
		row := n.Row(i)
		for _, v := range row {
			if math.Abs(v) > 1e-9 {
				w++
			}
		}
		weights[i] = w
	}
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	return order
}

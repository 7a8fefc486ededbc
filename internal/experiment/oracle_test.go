package experiment

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
)

// pairOracle is the brute-force identifiability oracle: one row per
// path that is not always good, plus one per path pair whose two paths
// share a potentially congested correlation set (other pairs add no
// new column), each decomposed by core.Rows into per-correlation-set
// subsets of any size, then core.Identify over all of them. A link is
// identifiable when its singleton column survives in colMap.
type pairOracle struct {
	pathSets []*bitset.Set
	index    map[string]int
	colMap   []int
	active   []bool
	qr       *linalg.QR
}

func newPairOracle(t *testing.T, top *topology.Topology, good, pot *bitset.Set) *pairOracle {
	t.Helper()
	var paths []int
	sets := make([]map[int]bool, top.NumPaths()) // per path: its potentially congested correlation sets
	for p := 0; p < top.NumPaths(); p++ {
		if good.Contains(p) {
			continue
		}
		paths = append(paths, p)
		sets[p] = map[int]bool{}
		top.PathLinks(p).ForEach(func(e int) bool {
			if pot.Contains(e) {
				sets[p][top.CorrSetOf(e)] = true
			}
			return true
		})
	}
	o := &pairOracle{}
	for _, p := range paths {
		o.pathSets = append(o.pathSets, bitset.FromIndices(top.NumPaths(), p))
	}
	for i, p := range paths {
		for _, q := range paths[i+1:] {
			for c := range sets[p] {
				if sets[q][c] {
					o.pathSets = append(o.pathSets, bitset.FromIndices(top.NumPaths(), p, q))
					break
				}
			}
		}
	}
	var rows [][]int
	rows, o.index = core.Rows(top, pot, o.pathSets)
	var err error
	if o.colMap, o.active, o.qr, err = core.Identify(context.Background(), rows, len(o.index)); err != nil {
		t.Fatal(err)
	}
	return o
}

// identified reports whether link e's singleton column survived.
func (o *pairOracle) identified(top *topology.Topology, e int) bool {
	c, ok := o.index[bitset.FromIndices(top.NumLinks(), e).Key()]
	if !ok {
		return false
	}
	for _, k := range o.colMap {
		if k == c {
			return true
		}
	}
	return false
}

// solve least-squares-solves the identified columns against the
// store's log good frequencies and returns g = exp(x) by column.
func (o *pairOracle) solve(t *testing.T, rec observe.Store) map[int]float64 {
	t.Helper()
	if o.qr == nil {
		return nil
	}
	var b []float64
	for i, a := range o.active {
		if a {
			lp, _ := rec.LogGoodFreq(o.pathSets[i])
			b = append(b, lp)
		}
	}
	x, err := o.qr.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	g := map[int]float64{}
	for k, c := range o.colMap {
		g[c] = math.Exp(x[k])
	}
	return g
}

// TestIdentifiabilityOracle checks that Correlation-complete identifies
// no link the pair oracle does not, and logs the gap between the two
// over the covered potentially congested links (stationary Random,
// Small). Sparse's gap is what pair identification would close.
func TestIdentifiabilityOracle(t *testing.T) {
	for _, kind := range []TopologyKind{Brite, Sparse} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := DefaultConfig(Small())
			cfg.Seed = seed
			top, err := BuildTopology(kind, cfg.Scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			run, err := runSim(cfg, top, netsim.RandomCongestion, false, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Compute(context.Background(), top, run.rec, run.coreCf)
			if err != nil {
				t.Fatal(err)
			}
			pot := res.PotentiallyCongested
			o := newPairOracle(t, top, run.rec.AlwaysGoodPaths(cfg.AlwaysGoodTol), pot)
			covered, byPlan, byOracle := 0, 0, 0
			pot.ForEach(func(e int) bool {
				if top.LinkPaths(e).IsEmpty() {
					return true
				}
				covered++
				_, plan := res.LinkGoodProb(e)
				oracle := o.identified(top, e)
				if plan {
					byPlan++
				}
				if oracle {
					byOracle++
				}
				if plan && !oracle {
					t.Errorf("%s seed %d: link %d identified by the plan, not by the oracle", kind, seed, e)
				}
				return true
			})
			t.Logf("%s seed %d: plan %d vs oracle %d of %d covered potentially congested links", kind, seed, byPlan, byOracle, covered)
		}
	}
}

// exactStore is an observe.Store whose good frequencies are exact:
// log P̂(P good) = log good(Links(P)), and the always-good paths are
// those whose good probability is 1. Everything else is answered by
// the embedded window.
type exactStore struct {
	*stream.Window
	top  *topology.Topology
	good func(links *bitset.Set) float64
}

func (s exactStore) LogGoodFreq(paths *bitset.Set) (float64, bool) {
	return math.Log(s.good(s.top.LinksOf(paths))), false
}

func (s exactStore) AlwaysGoodPaths(float64) *bitset.Set {
	out := bitset.New(s.top.NumPaths())
	for p := 0; p < s.top.NumPaths(); p++ {
		if s.good(s.top.PathLinks(p)) == 1 {
			out.Add(p)
		}
	}
	return out
}

// checkNoiseFree solves rec with Correlation-complete and with the
// pair oracle and checks every identified subset, and every singleton
// the oracle identifies, against good to 1e-9. It returns the
// Correlation-complete result and the worst errors.
func checkNoiseFree(t *testing.T, label string, rec exactStore) (res *core.Result, worstPlan, worstOracle float64) {
	t.Helper()
	const tol = 1e-9
	res, err := core.Compute(context.Background(), rec.top, rec, core.Config{AlwaysGoodTol: 0, MaxSubsetSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Subsets {
		if !s.Identifiable {
			continue
		}
		d := math.Abs(s.GoodProb - rec.good(s.Links))
		worstPlan = max(worstPlan, d)
		if d > tol {
			t.Errorf("%s: subset %s: g %v, true %v", label, s.Links, s.GoodProb, rec.good(s.Links))
		}
	}
	o := newPairOracle(t, rec.top, rec.AlwaysGoodPaths(0), res.PotentiallyCongested)
	g := o.solve(t, rec)
	for e := 0; e < rec.top.NumLinks(); e++ {
		if !o.identified(rec.top, e) {
			continue
		}
		link := bitset.FromIndices(rec.top.NumLinks(), e)
		d := math.Abs(g[o.index[link.Key()]] - rec.good(link))
		worstOracle = max(worstOracle, d)
		if d > tol {
			t.Errorf("%s: oracle link %d: g %v, true %v", label, e, g[o.index[link.Key()]], rec.good(link))
		}
	}
	return res, worstPlan, worstOracle
}

// noiseFreeStore simulates stationary Random congestion with perfect
// end-to-end monitoring (Small, 200 intervals) on top and returns the
// store that answers with the model's exact good probabilities.
func noiseFreeStore(t *testing.T, top *topology.Topology, seed int64) exactStore {
	t.Helper()
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	rng := rand.New(rand.NewSource(seed))
	const intervals = 200
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), intervals)
	for i := 0; i < intervals; i++ {
		rec.Add(model.Interval(i, rng).CongestedPaths)
	}
	return exactStore{Window: rec, top: top, good: model.TrueGoodProb}
}

// TestNoiseFreeOracle feeds both solvers the model's exact log good
// probabilities (PerfectE2E, stationary Random, Small): whatever they
// identify must then be exact, which separates estimation error from
// sampling and probing error.
func TestNoiseFreeOracle(t *testing.T) {
	for _, kind := range []TopologyKind{Brite, Sparse} {
		for seed := int64(1); seed <= 3; seed++ {
			top, err := BuildTopology(kind, Small(), seed)
			if err != nil {
				t.Fatal(err)
			}
			_, plan, oracle := checkNoiseFree(t, kind.String(), noiseFreeStore(t, top, seed))
			t.Logf("%s seed %d: worst error Correlation-complete %.1e, oracle %.1e", kind, seed, plan, oracle)
		}
	}
}

// TestNoiseFreeOracleSharded is the noise-free check through the
// sharded estimator, on Small topologies that split into two
// correlation-set shards: every subset the merged estimate identifies
// must be exact, which holds the merge to ground truth. (The cluster
// follows the in-process merge bit for bit: TestClusterPropertyBitIdentical.)
func TestNoiseFreeOracleSharded(t *testing.T) {
	est, err := estimator.New(estimator.CorrelationCompleteSharded)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind TopologyKind
		seed int64
	}{{Brite, 4}, {Sparse, 1}, {Sparse, 2}} {
		top, err := BuildTopology(c.kind, Small(), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if n := topology.NewPartition(top).NumShards(); n != 2 {
			t.Fatalf("%s seed %d: %d shards, want 2", c.kind, c.seed, n)
		}
		rec := noiseFreeStore(t, top, c.seed)
		res, err := est.Estimate(context.Background(), top, rec,
			estimator.WithAlwaysGoodTol(0), estimator.WithMaxSubsetSize(2))
		if err != nil {
			t.Fatal(err)
		}
		identified, worst := 0, 0.0
		for _, s := range res.Subsets {
			if !s.Identifiable {
				continue
			}
			identified++
			d := math.Abs(s.GoodProb - rec.good(s.Links))
			worst = max(worst, d)
			if d > 1e-9 {
				t.Errorf("%s seed %d: subset %s: g %v, true %v", c.kind, c.seed, s.Links, s.GoodProb, rec.good(s.Links))
			}
		}
		if identified == 0 {
			t.Errorf("%s seed %d: no subset identified", c.kind, c.seed)
		}
		t.Logf("%s seed %d: %d subsets identified, worst error %.1e", c.kind, c.seed, identified, worst)
	}
}

// TestNoiseFreeOracleFig1 is the noise-free oracle on the paper's
// Fig. 1 Case 1 (which netsim cannot simulate: it has no router
// links), with hand-set independent link probabilities. Identifiability++
// holds there, so every link must be identified.
func TestNoiseFreeOracleFig1(t *testing.T) {
	top := topology.Fig1Case1()
	linkGood := []float64{0.7, 0.6, 0.75, 0.8}
	good := func(links *bitset.Set) float64 {
		g := 1.0
		links.ForEach(func(e int) bool {
			g *= linkGood[e]
			return true
		})
		return g
	}
	res, _, _ := checkNoiseFree(t, "Fig1Case1", exactStore{Window: stream.NewWindow(top.NumPaths(), 1), top: top, good: good})
	for e := range linkGood {
		if _, ok := res.LinkGoodProb(e); !ok {
			t.Errorf("link %d not identified", e)
		}
	}
}

package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Fig4AlgorithmNames lists the Probability Computation algorithms in
// the paper's legend order.
var Fig4AlgorithmNames = []string{"Independence", "Correlation-heuristic", "Correlation-complete"}

// fig4Registry maps the paper's legend names onto estimator registry
// names: the figure drivers select algorithms by name like every other
// surface.
var fig4Registry = map[string]string{
	"Independence":          estimator.Independence,
	"Correlation-heuristic": estimator.CorrelationHeuristic,
	"Correlation-complete":  estimator.CorrelationComplete,
}

// fig4Scenarios are the three x-axis groups of Figures 4(a) and 4(b).
// Per §5.4, the No-Stationarity behaviour is layered on top of each
// scenario ("the congestion probability of each link changes every few
// time intervals").
func fig4Scenarios() []fig3Scenario {
	return []fig3Scenario{
		{"Random Congestion", Brite, netsim.RandomCongestion, true},
		{"Concentrated Congestion", Brite, netsim.ConcentratedCongestion, true},
		{"No Independence", Brite, netsim.NoIndependence, true},
	}
}

// Fig4Row holds, for one scenario, the per-link absolute errors of each
// algorithm (the mean is the bar of Figure 4(a)/(b); the raw values
// feed the CDF of Figure 4(c)).
type Fig4Row struct {
	Scenario string
	Topology TopologyKind
	// Errors[alg] lists |estimated − true| over the evaluated links.
	Errors map[string][]float64
}

// MeanErr returns the mean absolute error for one algorithm.
func (r Fig4Row) MeanErr(alg string) float64 { return metrics.MeanOf(r.Errors[alg]) }

// estimatorOptions maps the experiment configuration onto the shared
// functional options every estimator accepts.
func (c Config) estimatorOptions() []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(c.MaxSubsetSize),
		estimator.WithAlwaysGoodTol(c.AlwaysGoodTol),
		estimator.WithSeed(c.Seed),
	}
}

// linkEstimates runs the three Probability Computation algorithms —
// selected from the estimator registry by name — over one simulated
// monitoring period and returns per-algorithm per-link estimates of
// P(X_e = 1).
func linkEstimates(cfg Config, run *simRun) (map[string][]float64, *bitset.Set, error) {
	n := run.top.NumLinks()
	out := map[string][]float64{}
	opts := cfg.estimatorOptions()

	var pot *bitset.Set
	for _, legend := range Fig4AlgorithmNames {
		est, err := estimator.New(fig4Registry[legend])
		if err != nil {
			return nil, nil, err
		}
		res, err := est.Estimate(context.Background(), run.top, run.rec, opts...)
		if err != nil {
			return nil, nil, err
		}
		out[legend] = res.LinkProb
		if legend == "Correlation-complete" {
			pot = res.PotentiallyCongested
		}
	}

	// Evaluation set: potentially congested links covered by at least
	// one path (the links for which "computing the probability" is a
	// meaningful ask; uncovered links carry no signal for any
	// algorithm).
	eval := bitset.New(n)
	pot.ForEach(func(e int) bool {
		if !run.top.LinkPaths(e).IsEmpty() {
			eval.Add(e)
		}
		return true
	})
	return out, eval, nil
}

// Figure4 regenerates one panel of Figure 4(a)/(b): the mean absolute
// error of each algorithm's per-link congestion probabilities under the
// three scenarios, on the given topology kind. Scenario rows fan out
// over cfg.Workers goroutines with per-trial seeds (cfg.Seed+200+i), so
// the output is bit-identical to the serial run.
func Figure4(cfg Config, kind TopologyKind) ([]Fig4Row, error) {
	top, err := BuildTopology(kind, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	scenarios := fig4Scenarios()
	rows := make([]Fig4Row, len(scenarios))
	err = forEachTrial(cfg.Workers, len(scenarios), func(i int) error {
		sc := scenarios[i]
		run, err := runSim(cfg, top, sc.scen, sc.nonStationary, cfg.Seed+int64(200+i))
		if err != nil {
			return err
		}
		ests, eval, err := linkEstimates(cfg, run)
		if err != nil {
			return fmt.Errorf("figure4 %s: %w", sc.name, err)
		}
		truth := make([]float64, run.top.NumLinks())
		for e := range truth {
			truth[e] = run.model.TrueLinkProb(e)
		}
		row := Fig4Row{Scenario: sc.name, Topology: kind, Errors: map[string][]float64{}}
		for alg, est := range ests {
			row.Errors[alg] = metrics.AbsErrors(est, truth, eval.Contains)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure4CDF regenerates Figure 4(c): the CDF of the absolute error in
// the No-Independence scenario on the Sparse topology. points are the
// x-axis values; the returned map holds one curve per algorithm.
func Figure4CDF(cfg Config, points []float64) (map[string][]float64, error) {
	top, err := BuildTopology(Sparse, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	run, err := runSim(cfg, top, netsim.NoIndependence, true, cfg.Seed+300)
	if err != nil {
		return nil, err
	}
	ests, eval, err := linkEstimates(cfg, run)
	if err != nil {
		return nil, err
	}
	truth := make([]float64, run.top.NumLinks())
	for e := range truth {
		truth[e] = run.model.TrueLinkProb(e)
	}
	out := map[string][]float64{}
	for alg, est := range ests {
		out[alg] = metrics.CDF(metrics.AbsErrors(est, truth, eval.Contains), points)
	}
	return out, nil
}

// Fig4dCell is one bar of Figure 4(d): the Correlation-complete mean
// absolute error over individual links and over identifiable
// correlation subsets (size ≥ 2), per topology kind, in the
// No-Independence scenario.
type Fig4dCell struct {
	Topology   TopologyKind
	LinkErr    float64
	SubsetErr  float64
	NumSubsets int // identifiable multi-link subsets evaluated
}

// Figure4Subsets regenerates Figure 4(d). The two topology kinds run
// as independent trials on the cfg.Workers pool.
func Figure4Subsets(cfg Config) ([]Fig4dCell, error) {
	kinds := []TopologyKind{Brite, Sparse}
	out := make([]Fig4dCell, len(kinds))
	err := forEachTrial(cfg.Workers, len(kinds), func(ki int) error {
		kind := kinds[ki]
		top, err := BuildTopology(kind, cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		run, err := runSim(cfg, top, netsim.NoIndependence, true, cfg.Seed+400)
		if err != nil {
			return err
		}
		complete, err := core.Compute(context.Background(), run.top, run.rec, run.coreCf)
		if err != nil {
			return err
		}
		var linkErr, subsetErr metrics.Mean
		for e := 0; e < run.top.NumLinks(); e++ {
			if !complete.PotentiallyCongested.Contains(e) || run.top.LinkPaths(e).IsEmpty() {
				continue
			}
			est, _ := complete.LinkCongestProbOrFallback(e)
			linkErr.Add(absDiff(est, run.model.TrueLinkProb(e)))
		}
		nsubs := 0
		for _, s := range complete.Subsets {
			if !s.Identifiable || s.Links.Count() < 2 {
				continue
			}
			est, ok := complete.CongestedProb(s.Links)
			if !ok {
				continue
			}
			subsetErr.Add(absDiff(est, run.model.TrueCongestedProb(s.Links)))
			nsubs++
		}
		out[ki] = Fig4dCell{
			Topology:   kind,
			LinkErr:    linkErr.Value(),
			SubsetErr:  subsetErr.Value(),
			NumSubsets: nsubs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// RenderFigure4 formats one panel of Figure 4(a)/(b).
func RenderFigure4(rows []Fig4Row, kind TopologyKind) string {
	var b strings.Builder
	panel := "(a)"
	if kind == Sparse {
		panel = "(b)"
	}
	fmt.Fprintf(&b, "Figure 4%s: Mean absolute error, %s topologies\n", panel, kind)
	fmt.Fprintf(&b, "%-26s", "scenario")
	for _, alg := range Fig4AlgorithmNames {
		fmt.Fprintf(&b, " %22s", alg)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s", r.Scenario)
		for _, alg := range Fig4AlgorithmNames {
			fmt.Fprintf(&b, " %22.4f", r.MeanErr(alg))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure4CDF formats Figure 4(c).
func RenderFigure4CDF(points []float64, curves map[string][]float64) string {
	var b strings.Builder
	b.WriteString("Figure 4(c): CDF of absolute error, No Independence, Sparse topologies\n")
	fmt.Fprintf(&b, "%-10s", "abs.err")
	for _, alg := range Fig4AlgorithmNames {
		fmt.Fprintf(&b, " %22s", alg)
	}
	b.WriteByte('\n')
	for i, p := range points {
		fmt.Fprintf(&b, "%-10.2f", p)
		for _, alg := range Fig4AlgorithmNames {
			fmt.Fprintf(&b, " %22.3f", curves[alg][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure4d formats Figure 4(d).
func RenderFigure4d(cells []Fig4dCell) string {
	var b strings.Builder
	b.WriteString("Figure 4(d): Correlation-complete mean absolute error, No Independence\n")
	fmt.Fprintf(&b, "%-10s %12s %20s %12s\n", "topology", "links", "correlation subsets", "#subsets")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %12.4f %20.4f %12d\n", c.Topology, c.LinkErr, c.SubsetErr, c.NumSubsets)
	}
	return b.String()
}

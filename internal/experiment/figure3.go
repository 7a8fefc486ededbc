package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/probcalc"
)

// Fig3AlgorithmNames lists the inference algorithms in the paper's
// legend order.
var Fig3AlgorithmNames = []string{"Sparsity", "Bayesian-Independence", "Bayesian-Correlation"}

// Fig3Row is one scenario group of Figure 3: the average detection rate
// and false-positive rate of each algorithm over the monitoring period.
type Fig3Row struct {
	Scenario      string
	Topology      TopologyKind
	Detection     map[string]float64
	FalsePositive map[string]float64
}

// fig3Scenarios are the five x-axis groups of Figure 3.
type fig3Scenario struct {
	name          string
	kind          TopologyKind
	scen          netsim.Scenario
	nonStationary bool
}

func fig3Scenarios() []fig3Scenario {
	return []fig3Scenario{
		{"Random Congestion", Brite, netsim.RandomCongestion, false},
		{"Concentrated Congestion", Brite, netsim.ConcentratedCongestion, false},
		{"No Independence", Brite, netsim.NoIndependence, false},
		{"No Stationarity", Brite, netsim.NoIndependence, true},
		{"Sparse Topology", Sparse, netsim.RandomCongestion, false},
	}
}

// newInferenceAlgorithms instantiates the three algorithms under the
// shared configuration.
func newInferenceAlgorithms(cfg Config) []inference.Algorithm {
	return []inference.Algorithm{
		inference.NewSparsity(),
		inference.NewBayesianIndependence(probcalc.IndependenceConfig{
			AlwaysGoodTol: cfg.AlwaysGoodTol,
			Seed:          cfg.Seed,
		}),
		inference.NewBayesianCorrelation(core.Config{
			MaxSubsetSize: cfg.MaxSubsetSize,
			AlwaysGoodTol: cfg.AlwaysGoodTol,
		}),
	}
}

// Figure3 regenerates both panels of Figure 3: for each of the five
// scenarios, the per-algorithm average detection rate (panel a) and
// false-positive rate (panel b). Scenario rows fan out over
// cfg.Workers goroutines; each scenario seeds its own RNG
// (cfg.Seed+100+i) and owns its simulator, recorder and algorithm
// instances, so the rows are bit-identical to the serial run. The two
// topologies are built once up front and shared read-only.
func Figure3(cfg Config) ([]Fig3Row, error) {
	briteTop, err := BuildTopology(Brite, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sparseTop, err := BuildTopology(Sparse, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	scenarios := fig3Scenarios()
	rows := make([]Fig3Row, len(scenarios))
	err = forEachTrial(cfg.Workers, len(scenarios), func(i int) error {
		sc := scenarios[i]
		top := briteTop
		if sc.kind == Sparse {
			top = sparseTop
		}
		run, err := runSim(cfg, top, sc.scen, sc.nonStationary, cfg.Seed+int64(100+i))
		if err != nil {
			return err
		}
		row := Fig3Row{
			Scenario:      sc.name,
			Topology:      sc.kind,
			Detection:     map[string]float64{},
			FalsePositive: map[string]float64{},
		}
		for _, alg := range newInferenceAlgorithms(cfg) {
			if err := alg.Prepare(context.Background(), run.top, run.rec); err != nil {
				return fmt.Errorf("figure3 %s/%s: %w", sc.name, alg.Name(), err)
			}
			var dr, fpr metrics.Mean
			for t := range run.truth {
				inferred := alg.Infer(run.truth[t].CongestedPaths)
				actual := run.truth[t].CongestedLinks
				r, ok := metrics.DetectionRate(inferred, actual)
				dr.AddIf(r, ok)
				f, ok := metrics.FalsePositiveRate(inferred, actual)
				fpr.AddIf(f, ok)
			}
			row.Detection[alg.Name()] = dr.Value()
			row.FalsePositive[alg.Name()] = fpr.Value()
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure3 formats the rows like the paper's two panels.
func RenderFigure3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3(a): Detection Rate\n")
	renderFig3Panel(&b, rows, func(r Fig3Row, alg string) float64 { return r.Detection[alg] })
	b.WriteString("\nFigure 3(b): False Positive Rate\n")
	renderFig3Panel(&b, rows, func(r Fig3Row, alg string) float64 { return r.FalsePositive[alg] })
	return b.String()
}

func renderFig3Panel(b *strings.Builder, rows []Fig3Row, get func(Fig3Row, string) float64) {
	fmt.Fprintf(b, "%-26s", "scenario")
	for _, alg := range Fig3AlgorithmNames {
		fmt.Fprintf(b, " %22s", alg)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(b, "%-26s", r.Scenario)
		for _, alg := range Fig3AlgorithmNames {
			fmt.Fprintf(b, " %22.3f", get(r, alg))
		}
		b.WriteByte('\n')
	}
}

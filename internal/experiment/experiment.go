// Package experiment regenerates the paper's evaluation: the five
// Boolean-Inference scenarios of Figure 3 and the Probability
// Computation comparisons of Figure 4, plus the assumption matrix of
// Table 2. Each figure has a function returning structured rows and an
// ASCII renderer used by cmd/tomo and the benchmark harness.
package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/brite"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// TopologyKind selects between the paper's two topology families.
type TopologyKind int

const (
	// Brite is the dense synthetic AS-level overlay (§3.2).
	Brite TopologyKind = iota
	// Sparse is the traceroute-campaign overlay of the source ISP.
	Sparse
)

// String names the kind as in the paper.
func (k TopologyKind) String() string {
	if k == Sparse {
		return "Sparse"
	}
	return "Brite"
}

// Scale sizes an experiment. The paper's topologies are ≈1000 links /
// 1500 paths (Brite) and ≈2000 links / 1500 paths (Sparse) over 1000
// intervals; Paper() reproduces that, Medium() keeps full-figure runs
// in CLI range, Small() keeps tests and benchmarks fast.
type Scale struct {
	BriteNumAS, BriteRoutersPerAS, BritePaths    int
	SparseNumAS, SparseRoutersPerAS, SparsePaths int
	Intervals                                    int
	PacketsPerPath                               int
}

// Small is the test/bench scale.
func Small() Scale {
	return Scale{
		BriteNumAS: 40, BriteRoutersPerAS: 4, BritePaths: 150,
		SparseNumAS: 60, SparseRoutersPerAS: 5, SparsePaths: 120,
		Intervals: 200, PacketsPerPath: 800,
	}
}

// Medium is the default CLI scale: the same qualitative regime as the
// paper (Sparse has more links than paths, Brite far fewer) at a size
// each full figure regenerates in minutes on a laptop.
func Medium() Scale {
	return Scale{
		BriteNumAS: 150, BriteRoutersPerAS: 4, BritePaths: 700,
		SparseNumAS: 140, SparseRoutersPerAS: 6, SparsePaths: 700,
		Intervals: 1000, PacketsPerPath: 1000,
	}
}

// Paper is the paper's full scale.
func Paper() Scale {
	return Scale{
		BriteNumAS: 250, BriteRoutersPerAS: 5, BritePaths: 1500,
		SparseNumAS: 300, SparseRoutersPerAS: 7, SparsePaths: 1500,
		Intervals: 1000, PacketsPerPath: 1000,
	}
}

// Config parameterizes a figure run.
type Config struct {
	Scale Scale
	Seed  int64

	// AlwaysGoodTol is passed to every algorithm: with probe-based E2E
	// monitoring, false positives make the paper's strict always-good
	// definition vacuous, so a small tolerance is used instead (see
	// EXPERIMENTS.md).
	AlwaysGoodTol float64

	// MaxSubsetSize is the Correlation-complete resource knob.
	MaxSubsetSize int

	// Workers bounds the goroutines the figure drivers fan scenario
	// rows out to. Every trial derives its RNG from the scenario index
	// (rand.NewSource(Seed+trial)) and owns its simulator and recorder,
	// so the output is bit-identical to the serial run regardless of
	// scheduling. 0 (the default) and negative use all CPUs; 1 is the
	// explicit serial opt-out.
	Workers int
}

// DefaultConfig returns the configuration used by EXPERIMENTS.md.
func DefaultConfig(scale Scale) Config {
	return Config{Scale: scale, Seed: 1, AlwaysGoodTol: 0.02, MaxSubsetSize: 2}
}

// BuildTopology generates one of the two topology families at the
// configured scale.
func BuildTopology(kind TopologyKind, scale Scale, seed int64) (*topology.Topology, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case Brite:
		// The paper uses BRITE's AS-level module directly: links are
		// AS-AS edges, and the router level only induces correlations.
		// Identifiability++ holds on these overlays (§3.2).
		cfg := brite.DefaultConfig()
		cfg.NumAS = scale.BriteNumAS
		cfg.RoutersPerAS = scale.BriteRoutersPerAS
		top, _, err := brite.ASLevelTopology(cfg, scale.BritePaths, rng)
		return top, err
	case Sparse:
		cfg := traceroute.DefaultConfig()
		cfg.Internet.NumAS = scale.SparseNumAS
		cfg.Internet.RoutersPerAS = scale.SparseRoutersPerAS
		cfg.TargetPaths = scale.SparsePaths
		c, err := traceroute.Run(cfg, rng)
		if err != nil {
			return nil, err
		}
		return c.Topology, nil
	default:
		return nil, fmt.Errorf("experiment: unknown topology kind %d", kind)
	}
}

// forEachTrial runs fn(i) for every trial index in [0, n), fanned out
// over a bounded worker pool of workers goroutines (serial when ≤ 1).
// Each fn owns slot i of its output slice and seeds its own RNG from
// the trial index, so results are bit-identical to the serial loop.
// The error of the lowest failing trial is returned — the serial
// path's error precedence — and no new trials start after a failure.
func forEachTrial(workers, n int, fn func(i int) error) error {
	return parallel.ForErr(workers, n, fn)
}

// simRun is one simulated monitoring period: the model, the recorded
// path observations, and the per-interval ground truth.
type simRun struct {
	top    *topology.Topology
	model  *netsim.Model
	rec    *stream.Window
	truth  []netsim.Observation
	coreCf core.Config
}

// runSim executes the monitoring period for one scenario.
func runSim(cfg Config, top *topology.Topology, scen netsim.Scenario, nonStationary bool, seed int64) (*simRun, error) {
	mc := netsim.DefaultConfig(scen)
	mc.NonStationary = nonStationary
	mc.PacketsPerPath = cfg.Scale.PacketsPerPath
	rng := rand.New(rand.NewSource(seed))
	model, err := netsim.NewModel(top, mc, cfg.Scale.Intervals, rng)
	if err != nil {
		return nil, err
	}
	rec := stream.NewWindow(top.NumPaths(), cfg.Scale.Intervals)
	truth := make([]netsim.Observation, cfg.Scale.Intervals)
	for t := 0; t < cfg.Scale.Intervals; t++ {
		obs := model.Interval(t, rng)
		rec.Add(obs.CongestedPaths)
		truth[t] = obs
	}
	return &simRun{
		top:   top,
		model: model,
		rec:   rec,
		truth: truth,
		coreCf: core.Config{
			MaxSubsetSize: cfg.MaxSubsetSize,
			AlwaysGoodTol: cfg.AlwaysGoodTol,
		},
	}, nil
}

// Package tomography is a Go implementation of the system described in
// "Shifting Network Tomography Toward A Practical Goal" (Ghita,
// Karakus, Argyraki, Thiran — ACM CoNEXT 2011).
//
// It provides, as a library:
//
//   - the Boolean network-tomography model: AS-level topologies with
//     links, end-to-end paths, coverage functions and correlation sets
//     (one per AS by default);
//   - a unified Estimator interface over every algorithm of the paper,
//     selected by registry name: the Correlation-complete Congestion
//     Probability Computation algorithm (the paper's contribution,
//     Algorithms 1 and 2), the Independence and Correlation-heuristic
//     baselines, and adapters over the three Boolean Inference
//     algorithms (Sparsity, Bayesian-Independence,
//     Bayesian-Correlation) whose limitations motivate the paper;
//   - the experimental substrate: BRITE-style dense topology
//     generation, a traceroute-campaign synthesizer for sparse
//     ISP-view topologies, and a congestion/loss/probing simulator
//     with router-level correlation ground truth.
//
// # Quick start
//
// Monitor a network by recording, per measurement interval, which paths
// were congested; then run any estimator from the registry over the
// observations:
//
//	top := tomography.Fig1Case1() // or your own topology
//	rec := tomography.NewSlidingWindow(top.NumPaths(), T) // T ≥ the intervals you add
//	for each interval {
//	    rec.Add(congestedPaths) // a bitset of path IDs
//	}
//	est, err := tomography.NewEstimator("correlation-complete")
//	res, err := est.Estimate(ctx, top, rec,
//	    tomography.WithMaxSubsetSize(2),
//	    tomography.WithAlwaysGoodTol(0.02))
//	p, exact := res.LinkCongestProb(linkID)
//
// Every estimator accepts any ObservationStore and the same functional
// options; the context cancels a long solve. A SlidingWindow whose
// capacity covers the run holds every interval, as a full monitoring
// period; a smaller one keeps only the most recent intervals, as the
// streaming daemon does. tomography.Estimators() lists the registry.
// Joint subset probabilities (the paper's primary output) are on
// res.Subsets and, for Correlation-complete, res.Detail.
//
// See examples/ for complete programs, cmd/tomo for the harness that
// regenerates every figure and table of the paper, and cmd/tomod for
// the streaming daemon exposing the same registry over HTTP. MIGRATION.md
// maps the pre-registry API onto this one.
package tomography

import (
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/inference"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/probcalc"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// ---------------------------------------------------------------------
// Network model
// ---------------------------------------------------------------------

// Topology is the network model: links, loop-free end-to-end paths, and
// correlation sets (Assumption 5).
type Topology = topology.Topology

// Link is a logical (AS-level) link.
type Link = topology.Link

// Path is a loop-free end-to-end path.
type Path = topology.Path

// Set is a bit set of link or path IDs.
type Set = bitset.Set

// NewSet returns an empty set over universe [0, n).
func NewSet(n int) *Set { return bitset.New(n) }

// SetOf returns a set over [0, n) containing the given indices.
func SetOf(n int, indices ...int) *Set { return bitset.FromIndices(n, indices...) }

// NewTopology assembles a topology, reporting structurally invalid
// input (dangling link references, loops, overlapping correlation sets)
// as an error. corrSets may be nil (every link becomes its own
// correlation set); use CorrelationSetsByAS for the paper's
// one-set-per-AS policy.
func NewTopology(links []Link, paths []Path, corrSets [][]int) (*Topology, error) {
	return topology.NewChecked(links, paths, corrSets)
}

// MustNewTopology is NewTopology panicking on invalid input, for
// hand-written literal topologies.
func MustNewTopology(links []Link, paths []Path, corrSets [][]int) *Topology {
	return topology.New(links, paths, corrSets)
}

// CorrelationSetsByAS groups links into one correlation set per AS (§2).
func CorrelationSetsByAS(links []Link) [][]int { return topology.CorrelationSetsByAS(links) }

// Fig1Case1 returns the paper's toy topology (Fig. 1) with correlation
// sets {{e1}, {e2,e3}, {e4}}.
func Fig1Case1() *Topology { return topology.Fig1Case1() }

// Fig1Case2 returns the toy topology with correlation sets
// {{e1,e4}, {e2,e3}}, for which Identifiability++ fails.
func Fig1Case2() *Topology { return topology.Fig1Case2() }

// ---------------------------------------------------------------------
// Observation
// ---------------------------------------------------------------------

// ObservationStore is the read side of the per-interval path
// observations (Assumption 2); every estimator accepts it.
type ObservationStore = observe.Store

// SlidingWindow is the observation store: it retains the most recent
// capacity intervals, evicting the oldest in O(words) once full. Sized
// to a whole run it never evicts; it is also the substrate of the
// streaming service (cmd/tomod).
type SlidingWindow = stream.Window

// NewSlidingWindow returns an empty window over numPaths paths
// retaining at most capacity intervals.
func NewSlidingWindow(numPaths, capacity int) *SlidingWindow {
	return stream.NewWindow(numPaths, capacity)
}

// ---------------------------------------------------------------------
// The unified Estimator interface
// ---------------------------------------------------------------------

// Estimator is one congestion-probability estimation algorithm: it runs
// over a topology and any observation store, tuned by functional
// options, cancellable through the context. Obtain one from
// NewEstimator; implementations are stateless and safe for concurrent
// use.
type Estimator = estimator.Estimator

// Estimate is the unified output of every estimator: per-link
// congestion probabilities, plus subset-level probabilities and solver
// diagnostics for the algorithms that produce them.
type Estimate = estimator.Estimate

// SubsetEstimate is the estimated probability that all links of one
// correlation subset are simultaneously good.
type SubsetEstimate = estimator.SubsetEstimate

// Option tunes an estimator run; options validate eagerly and surface
// bad values as errors from Estimate, never as panics.
type Option = estimator.Option

// Estimators lists the registered estimator names, sorted:
// "bayesian-correlation", "bayesian-independence",
// "correlation-complete", "correlation-complete-sharded",
// "correlation-heuristic", "independence", "sparsity".
// "correlation-complete-sharded" solves each correlation-set shard
// (connected component of the correlation-set/path incidence)
// independently and merges the blocks — identical output, block-wise
// cost.
func Estimators() []string { return estimator.Names() }

// NewEstimator returns the estimator registered under name; the error
// of an unknown name lists the known ones.
func NewEstimator(name string) (Estimator, error) { return estimator.New(name) }

// The functional options shared by every estimator; each algorithm
// reads the knobs relevant to it and ignores the rest.
var (
	// WithMaxSubsetSize bounds the enumerated correlation-subset size
	// (the paper's resource knob, §4). 0 means unbounded.
	WithMaxSubsetSize = estimator.WithMaxSubsetSize
	// WithAlwaysGoodTol sets the congested-fraction tolerance under
	// which a path counts as always good, in [0, 1).
	WithAlwaysGoodTol = estimator.WithAlwaysGoodTol
	// WithMaxEnumPathSets caps the per-subset candidate enumeration of
	// the Correlation-complete augmentation loop.
	WithMaxEnumPathSets = estimator.WithMaxEnumPathSets
	// WithPairsPerLink sizes the Independence baseline's per-link
	// path-pair sampling.
	WithPairsPerLink = estimator.WithPairsPerLink
	// WithGlobalPairs sizes the Independence baseline's global
	// path-pair sampling (-1 disables).
	WithGlobalPairs = estimator.WithGlobalPairs
	// WithSweeps sets the Correlation-heuristic substitution sweeps.
	WithSweeps = estimator.WithSweeps
	// WithSeed seeds the estimators that sample.
	WithSeed = estimator.WithSeed
)

// ---------------------------------------------------------------------
// Algorithm configurations and the Correlation-complete result
// ---------------------------------------------------------------------

// ProbabilityConfig tunes the Correlation-complete algorithm; the
// MaxSubsetSize field is the paper's resource knob (§4).
type ProbabilityConfig = core.Config

// DefaultProbabilityConfig returns the configuration used by the
// paper's experiments (subsets of up to two links).
func DefaultProbabilityConfig() ProbabilityConfig { return core.DefaultConfig() }

// ProbabilityResult is the output of Correlation-complete: per-subset
// good probabilities with identifiability flags and joint-probability
// queries. The "correlation-complete" estimator carries it as
// Estimate.Detail.
type ProbabilityResult = core.Result

// IndependenceConfig tunes the Independence baseline.
type IndependenceConfig = probcalc.IndependenceConfig

// ---------------------------------------------------------------------
// Boolean Inference (the problem the paper argues against)
// ---------------------------------------------------------------------

// InferenceAlgorithm diagnoses the congested links of one interval from
// the congested paths. The same algorithms are reachable through the
// Estimator registry ("sparsity", "bayesian-independence",
// "bayesian-correlation"), where their per-interval diagnoses are
// aggregated into per-link blame frequencies.
type InferenceAlgorithm = inference.Algorithm

// NewSparsity returns the Sparsity (Tomo) inference algorithm [6, 8].
func NewSparsity() InferenceAlgorithm { return inference.NewSparsity() }

// NewBayesianIndependence returns the CLINK-style inference algorithm
// [11].
func NewBayesianIndependence(cfg IndependenceConfig) InferenceAlgorithm {
	return inference.NewBayesianIndependence(cfg)
}

// NewBayesianCorrelation returns the correlation-aware Bayesian
// inference algorithm developed for the paper [10].
func NewBayesianCorrelation(cfg ProbabilityConfig) InferenceAlgorithm {
	return inference.NewBayesianCorrelation(cfg)
}

// ---------------------------------------------------------------------
// Topology generation and simulation
// ---------------------------------------------------------------------

// BriteConfig parameterizes the BRITE-style generator.
type BriteConfig = brite.Config

// DefaultBriteConfig returns the dense-topology parameters used in the
// evaluation.
func DefaultBriteConfig() BriteConfig { return brite.DefaultConfig() }

// Internet is a generated two-tier (router + AS) ground-truth network.
type Internet = brite.Internet

// GenerateBrite generates a dense "Brite" AS-level overlay by routing
// numPaths random end-to-end routes over a synthetic Internet. It
// returns the overlay and the underlying Internet (whose router-level
// links define the ground-truth link correlations).
func GenerateBrite(cfg BriteConfig, numPaths int, rng *rand.Rand) (*Topology, *Internet, error) {
	return brite.DenseTopology(cfg, numPaths, rng)
}

// TracerouteConfig parameterizes the sparse-view traceroute campaign.
type TracerouteConfig = traceroute.Config

// DefaultTracerouteConfig sizes a campaign to the paper's Sparse
// topologies.
func DefaultTracerouteConfig() TracerouteConfig { return traceroute.DefaultConfig() }

// Campaign is the outcome of a traceroute measurement campaign.
type Campaign = traceroute.Campaign

// GenerateSparse synthesizes the paper's "Sparse" topology: the
// AS-level view of a source ISP tracerouting the Internet from a few
// vantage points, with incomplete traces discarded.
func GenerateSparse(cfg TracerouteConfig, rng *rand.Rand) (*Campaign, error) {
	return traceroute.Run(cfg, rng)
}

// Scenario selects which links are congestible in a simulation.
type Scenario = netsim.Scenario

// The paper's congestion scenarios (§3.2).
const (
	RandomCongestion       = netsim.RandomCongestion
	ConcentratedCongestion = netsim.ConcentratedCongestion
	NoIndependence         = netsim.NoIndependence
)

// SimulationConfig parameterizes the congestion/loss/probing simulator.
type SimulationConfig = netsim.Config

// DefaultSimulationConfig mirrors the paper's simulator setup for the
// given scenario.
func DefaultSimulationConfig(s Scenario) SimulationConfig { return netsim.DefaultConfig(s) }

// Simulation is a fully specified congestion model over a topology.
type Simulation = netsim.Model

// Observation is one simulated interval: the probed path statuses and
// the hidden ground truth.
type Observation = netsim.Observation

// NewSimulation draws a congestion model for totalIntervals intervals.
func NewSimulation(top *Topology, cfg SimulationConfig, totalIntervals int, rng *rand.Rand) (*Simulation, error) {
	return netsim.NewModel(top, cfg, totalIntervals, rng)
}

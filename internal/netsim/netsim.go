// Package netsim simulates congestion and probe traffic over an
// AS-level topology, following §3.2 of the paper ("Simulator"):
//
//   - a configurable fraction (10 % in the paper) of the AS-level links
//     is congestible, each with a congestion probability drawn uniformly
//     from (0, 1);
//   - congestion actually lives on the underlying *router-level* links,
//     so AS-level links that share a router-level link congest together
//     in the same interval — this is the ground truth behind the
//     correlation-set assumption;
//   - per interval, a good link drops a loss rate drawn from U(0, 0.01)
//     and a congested link from U(0.01, 1), the loss model of
//     Padmanabhan et al. [12];
//   - each path is probed with a batch of packets; the path is observed
//     congested when its measured loss exceeds 1−(1−f)^d for a path of
//     d links (the threshold of Duffield [8]), so end-to-end monitoring
//     has realistic false positives/negatives;
//   - in the No-Stationarity scenarios, the congestion probabilities are
//     redrawn every RedrawEvery intervals.
//
// Which links are congestible depends on the scenario: chosen uniformly
// (RandomCongestion), at the network edge (ConcentratedCongestion), or
// so that every congestible link is correlated with at least one other
// (NoIndependence).
package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// Scenario selects which links receive a non-zero congestion
// probability (§3.2).
type Scenario int

const (
	// RandomCongestion picks the congestible links uniformly at random.
	RandomCongestion Scenario = iota
	// ConcentratedCongestion picks links at the edge of the network
	// (adjacent to end-hosts: the first/last links of paths).
	ConcentratedCongestion
	// NoIndependence picks links such that each congestible link is
	// correlated with at least one other (they share a router link).
	NoIndependence
)

// String names the scenario as in the paper's figures.
func (s Scenario) String() string {
	switch s {
	case RandomCongestion:
		return "Random Congestion"
	case ConcentratedCongestion:
		return "Concentrated Congestion"
	case NoIndependence:
		return "No Independence"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Config parameterizes a simulation.
type Config struct {
	Scenario        Scenario
	CongestibleFrac float64 // fraction of links with non-zero congestion probability (paper: 0.10)
	NonStationary   bool    // redraw congestion probabilities periodically (the "No Stationarity" add-on)
	RedrawEvery     int     // intervals per stationary epoch (only if NonStationary)
	PacketsPerPath  int     // probe packets per path per interval
	LossThresholdF  float64 // the link threshold f; path threshold is 1-(1-f)^d
	PerfectE2E      bool    // bypass probing: a path is observed congested iff a link on it is congested
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig(s Scenario) Config {
	return Config{
		Scenario:        s,
		CongestibleFrac: 0.10,
		RedrawEvery:     50,
		PacketsPerPath:  1000,
		LossThresholdF:  0.01,
	}
}

// Model is a fully-specified simulation: the congestible router links,
// their per-epoch congestion probabilities, and the derived per-link
// ground truth.
type Model struct {
	Top *topology.Topology
	Cfg Config

	// congestible router links and their probabilities, per epoch.
	drivers   []int       // router-link IDs that can congest
	driverIdx map[int]int // router-link ID -> index into drivers
	epochs    [][]float64 // epochs[e][d] = P(driver d congested) during epoch e
	intervals int         // total interval count the model was built for

	// linkDrivers[e] lists (indices into drivers of) the congestible
	// router links underlying AS-level link e.
	linkDrivers [][]int

	pathThreshold []float64 // per path: 1-(1-f)^d

	// scratch reused across intervals.
	driverState []bool
	lossRate    []float64
}

// NewModel selects the congestible links per the scenario and draws the
// congestion probability schedule for totalIntervals intervals.
func NewModel(top *topology.Topology, cfg Config, totalIntervals int, rng *rand.Rand) (*Model, error) {
	if cfg.CongestibleFrac <= 0 || cfg.CongestibleFrac > 1 {
		return nil, fmt.Errorf("netsim: CongestibleFrac %v out of (0,1]", cfg.CongestibleFrac)
	}
	if cfg.PacketsPerPath <= 0 && !cfg.PerfectE2E {
		return nil, fmt.Errorf("netsim: PacketsPerPath must be positive")
	}
	if cfg.LossThresholdF <= 0 || cfg.LossThresholdF >= 1 {
		return nil, fmt.Errorf("netsim: LossThresholdF %v out of (0,1)", cfg.LossThresholdF)
	}
	if totalIntervals <= 0 {
		return nil, fmt.Errorf("netsim: totalIntervals must be positive")
	}
	m := &Model{Top: top, Cfg: cfg, intervals: totalIntervals, driverIdx: map[int]int{}}
	if err := m.selectDrivers(rng); err != nil {
		return nil, err
	}

	// Probability schedule: one epoch if stationary, else one per
	// RedrawEvery intervals.
	numEpochs := 1
	if cfg.NonStationary {
		re := cfg.RedrawEvery
		if re <= 0 {
			re = 50
		}
		numEpochs = (totalIntervals + re - 1) / re
	}
	m.epochs = make([][]float64, numEpochs)
	for e := range m.epochs {
		ps := make([]float64, len(m.drivers))
		for d := range ps {
			ps[d] = rng.Float64()
		}
		m.epochs[e] = ps
	}

	// Derived per-link driver lists and path thresholds.
	m.linkDrivers = make([][]int, top.NumLinks())
	for li, l := range top.Links {
		for _, r := range l.RouterLinks {
			if di, ok := m.driverIdx[r]; ok {
				m.linkDrivers[li] = append(m.linkDrivers[li], di)
			}
		}
	}
	m.pathThreshold = make([]float64, top.NumPaths())
	for pi := range m.pathThreshold {
		d := float64(top.PathLen(pi))
		m.pathThreshold[pi] = 1 - math.Pow(1-cfg.LossThresholdF, d)
	}
	m.driverState = make([]bool, len(m.drivers))
	m.lossRate = make([]float64, top.NumLinks())
	return m, nil
}

// addDriver registers router link r as congestible.
func (m *Model) addDriver(r int) {
	if _, ok := m.driverIdx[r]; ok {
		return
	}
	m.driverIdx[r] = len(m.drivers)
	m.drivers = append(m.drivers, r)
}

// selectDrivers implements the three scenario policies. In every
// scenario the target is ⌈frac·|E*|⌉ AS-level links with a non-zero
// congestion probability.
func (m *Model) selectDrivers(rng *rand.Rand) error {
	top := m.Top
	n := top.NumLinks()
	target := int(math.Ceil(m.Cfg.CongestibleFrac * float64(n)))
	if target < 1 {
		target = 1
	}
	affected := bitset.New(n)
	// countAffected recomputes which AS links contain a congestible
	// router link.
	recount := func() int {
		affected.Clear()
		for li, l := range top.Links {
			for _, r := range l.RouterLinks {
				if _, ok := m.driverIdx[r]; ok {
					affected.Add(li)
					break
				}
			}
		}
		return affected.Count()
	}

	switch m.Cfg.Scenario {
	case RandomCongestion, ConcentratedCongestion:
		var candidates []int
		if m.Cfg.Scenario == RandomCongestion {
			candidates = rng.Perm(n)
		} else {
			// Edge links: those adjacent to an end-host, i.e. appearing
			// as the first or last link of some path — "there is no
			// congestion at the core" (§3.2).
			edge := bitset.New(n)
			for _, p := range top.Paths {
				edge.Add(p.Links[0])
				edge.Add(p.Links[len(p.Links)-1])
			}
			candidates = edge.Indices()
			rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		}
		for _, li := range candidates {
			if recount() >= target {
				break
			}
			rl := top.Links[li].RouterLinks
			if len(rl) == 0 {
				continue // no router link to congest (a hand-built topology)
			}
			m.addDriver(rl[rng.Intn(len(rl))])
		}
	case NoIndependence:
		// Router links shared by ≥2 AS links: congesting one congests
		// all of them together.
		sharedBy := map[int][]int{}
		for li, l := range top.Links {
			for _, r := range l.RouterLinks {
				sharedBy[r] = append(sharedBy[r], li)
			}
		}
		var shared []int
		for r, lis := range sharedBy {
			if len(lis) >= 2 {
				shared = append(shared, r)
			}
		}
		// Deterministic base order, then shuffle.
		sortInts(shared)
		rng.Shuffle(len(shared), func(i, j int) { shared[i], shared[j] = shared[j], shared[i] })
		for _, r := range shared {
			if recount() >= target {
				break
			}
			m.addDriver(r)
		}
		if recount() < target {
			return fmt.Errorf("netsim: topology has too few correlated links for the NoIndependence scenario (%d of %d target)", recount(), target)
		}
	default:
		return fmt.Errorf("netsim: unknown scenario %d", m.Cfg.Scenario)
	}
	if len(m.drivers) == 0 {
		return fmt.Errorf("netsim: no congestible links selected")
	}
	return nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// epochOf returns the epoch index of interval t.
func (m *Model) epochOf(t int) int {
	if !m.Cfg.NonStationary || len(m.epochs) == 1 {
		return 0
	}
	re := m.Cfg.RedrawEvery
	if re <= 0 {
		re = 50
	}
	e := t / re
	if e >= len(m.epochs) {
		e = len(m.epochs) - 1
	}
	return e
}

// Observation is the outcome of one measurement interval.
type Observation struct {
	CongestedPaths *bitset.Set // observed via probing (Assumption 2)
	CongestedLinks *bitset.Set // ground truth, hidden from the algorithms
}

// Interval simulates interval t: draws the congestion state, the loss
// rates, probes every path, and returns the observation.
func (m *Model) Interval(t int, rng *rand.Rand) Observation {
	ps := m.epochs[m.epochOf(t)]
	for d, p := range ps {
		m.driverState[d] = rng.Float64() < p
	}
	congLinks := bitset.New(m.Top.NumLinks())
	for li := range m.Top.Links {
		congested := false
		for _, di := range m.linkDrivers[li] {
			if m.driverState[di] {
				congested = true
				break
			}
		}
		if congested {
			congLinks.Add(li)
			m.lossRate[li] = 0.01 + rng.Float64()*0.99 // U(0.01, 1)
		} else {
			m.lossRate[li] = rng.Float64() * 0.01 // U(0, 0.01)
		}
	}
	congPaths := bitset.New(m.Top.NumPaths())
	for pi := range m.Top.Paths {
		if m.Cfg.PerfectE2E {
			if m.Top.PathLinks(pi).Intersects(congLinks) {
				congPaths.Add(pi)
			}
			continue
		}
		// Probe: survival through the path is the product of per-link
		// survival rates; the measured loss fraction is binomial.
		survive := 1.0
		for _, li := range m.Top.Paths[pi].Links {
			survive *= 1 - m.lossRate[li]
		}
		n := m.Cfg.PacketsPerPath
		got := Binomial(n, survive, rng)
		lossFrac := 1 - float64(got)/float64(n)
		if lossFrac > m.pathThreshold[pi] {
			congPaths.Add(pi)
		}
	}
	return Observation{CongestedPaths: congPaths, CongestedLinks: congLinks}
}

// TrueGoodProb returns the exact model probability that every link in
// the set is good, time-averaged over epochs: the product over the
// congestible router links underlying the set of (1 − p_r).
func (m *Model) TrueGoodProb(links *bitset.Set) float64 {
	// Union of driver indices under the set.
	seen := map[int]bool{}
	links.ForEach(func(li int) bool {
		for _, di := range m.linkDrivers[li] {
			seen[di] = true
		}
		return true
	})
	if len(seen) == 0 {
		return 1
	}
	return m.averageOverEpochs(func(ps []float64) float64 {
		g := 1.0
		for di := range seen {
			g *= 1 - ps[di]
		}
		return g
	})
}

// TrueCongestedProb returns the exact model probability that every link
// in the set is congested simultaneously, via inclusion–exclusion over
// the set (tractable for the small sets the algorithms report).
func (m *Model) TrueCongestedProb(links *bitset.Set) float64 {
	ids := links.Indices()
	if len(ids) == 0 {
		return 1
	}
	if len(ids) > 20 {
		panic("netsim: TrueCongestedProb on a set larger than 20 links")
	}
	return m.averageOverEpochs(func(ps []float64) float64 {
		// P(∀ congested) = Σ_{S⊆ids} (−1)^|S| P(all in S good).
		total := 0.0
		for mask := 0; mask < 1<<len(ids); mask++ {
			seen := map[int]bool{}
			bits := 0
			for b, li := range ids {
				if mask&(1<<b) != 0 {
					bits++
					for _, di := range m.linkDrivers[li] {
						seen[di] = true
					}
				}
			}
			g := 1.0
			for di := range seen {
				g *= 1 - ps[di]
			}
			if bits%2 == 0 {
				total += g
			} else {
				total -= g
			}
		}
		return total
	})
}

// TrueLinkProb returns the time-averaged probability that link e is
// congested.
func (m *Model) TrueLinkProb(e int) float64 {
	s := bitset.New(m.Top.NumLinks())
	s.Add(e)
	return 1 - m.TrueGoodProb(s)
}

// averageOverEpochs weights each epoch by the number of intervals it
// covers within the model's horizon.
func (m *Model) averageOverEpochs(f func(ps []float64) float64) float64 {
	if len(m.epochs) == 1 {
		return f(m.epochs[0])
	}
	re := m.Cfg.RedrawEvery
	if re <= 0 {
		re = 50
	}
	total, weight := 0.0, 0
	for e, ps := range m.epochs {
		w := re
		if (e+1)*re > m.intervals {
			w = m.intervals - e*re
		}
		if w <= 0 {
			break
		}
		total += float64(w) * f(ps)
		weight += w
	}
	return total / float64(weight)
}

// CongestibleLinks returns the AS-level links with a non-zero
// congestion probability (the scenario's 10 %).
func (m *Model) CongestibleLinks() *bitset.Set {
	out := bitset.New(m.Top.NumLinks())
	for li := range m.Top.Links {
		if len(m.linkDrivers[li]) > 0 {
			out.Add(li)
		}
	}
	return out
}

// CorrelatedWithAnother reports whether congestible link e shares a
// congestible router link with some other congestible link.
func (m *Model) CorrelatedWithAnother(e int) bool {
	for _, di := range m.linkDrivers[e] {
		for li := range m.Top.Links {
			if li == e {
				continue
			}
			for _, dj := range m.linkDrivers[li] {
				if di == dj {
					return true
				}
			}
		}
	}
	return false
}

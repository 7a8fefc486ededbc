package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/topology"
)

// member is one generated topology of a workload; a workload with
// several members runs over their disjoint union (a federation).
type member struct {
	kind  experiment.TopologyKind
	scale experiment.Scale
	seed  int64
}

// spec is one workload: a topology and a simulated observation trace
// over it (fixed — they are the workload), a daemon configuration, and
// an open-loop arrival process. The run's seed picks the phase of the
// trace the run starts at and the jitter of the arrival gaps.
type spec struct {
	name string
	why  string

	members       []member
	nonStationary bool  // redraw congestion probabilities every 50 intervals
	traceSeed     int64 // seed of the simulated trace (see load)

	cluster    bool // coordinator + 2 workers instead of one standalone daemon
	algo       string
	window     int
	epochEvery int           // -epoch-every (0 = time cadence only)
	recompute  time.Duration // -recompute
	wal        bool          // -wal-dir <tmp>, fsync policy "interval"

	batch        int           // intervals per POST
	meanGap      time.Duration // mean of the jittered gap between POSTs
	probeEvery   time.Duration // freshness prober spacing while a batch is unpublished
	prefillBatch int           // intervals per lock-step prefill POST
	poolCap      int           // the trace is at most this many intervals long; longer runs cycle it
}

// specs returns the four workloads. The rates keep the daemon at
// roughly a quarter to a half of one core on a 2-vCPU box, so the
// backlog never grows and (with a 1 ms solver tick) every batch gets
// its own epoch: the work in a run is then a property of the inputs,
// not of how many ticks happened to fit.
func specs() []spec {
	return []spec{
		{
			name:    "paper_stream",
			why:     "paper scale, one estimate per interval: clone, warm plan, solve, publish dominate (stride-drain path)",
			members: []member{{experiment.Brite, experiment.Paper(), 1}}, traceSeed: 5,
			algo: estimator.CorrelationComplete, window: 1000, epochEvery: 1, recompute: time.Millisecond,
			batch: 1, meanGap: 12500 * time.Microsecond, probeEvery: 500 * time.Microsecond,
			prefillBatch: 8, poolCap: 4000,
		},
		{
			name:          "sparse_drift",
			why:           "non-stationary sparse topology: the good-link frontier moves, a fifth of the epochs rebuild the plan cold (time-cadence path)",
			members:       []member{{experiment.Sparse, sparseDriftScale(), 1}},
			nonStationary: true, traceSeed: 1,
			algo: estimator.CorrelationComplete, window: 1000, recompute: time.Millisecond,
			batch: 10, meanGap: 30 * time.Millisecond, probeEvery: 500 * time.Microsecond,
			prefillBatch: 100, poolCap: 4000,
		},
		{
			name:    "bulk_ingest",
			why:     "4000 intervals/s in 50-interval batches with the WAL on: JSON decode, validation, WAL append and ring add dominate, solver twice a second",
			members: []member{{experiment.Brite, experiment.Paper(), 1}}, traceSeed: 5,
			algo: estimator.CorrelationComplete, window: 1000, recompute: 500 * time.Millisecond, wal: true,
			batch: 50, meanGap: 12500 * time.Microsecond, probeEvery: 5 * time.Millisecond,
			// A trace exactly one window long: once the window is full every
			// interval added evicts its own copy, so the window's content —
			// and with it the solver's work and answers — never changes while
			// decode, WAL and ring do their full work on every batch.
			prefillBatch: 1000, poolCap: 1000,
		},
		{
			name: "fed_cluster",
			why:  "4-ISP federation on a coordinator and 2 workers: RPC fan-out, shard solves, merge and mirror dominate",
			members: []member{
				{experiment.Brite, experiment.Medium(), 1},
				{experiment.Brite, experiment.Medium(), 2},
				{experiment.Brite, experiment.Medium(), 3},
				{experiment.Brite, experiment.Medium(), 4},
			},
			cluster: true, traceSeed: 1,
			algo: estimator.CorrelationCompleteSharded, window: 1000, recompute: time.Millisecond,
			batch: 5, meanGap: 100 * time.Millisecond, probeEvery: 500 * time.Microsecond,
			prefillBatch: 200, poolCap: 2000,
		},
	}
}

// sparseDriftScale sizes the drift workload's Sparse topology (200
// paths over 274 links) so that a cold plan rebuild costs ≈ 7 ms: at
// Medium() it costs ≈ 90 ms, arrivals must be paced slower than the
// worst epoch, and eight batches a second leave the box idle between
// them — every figure then measured how long its vCPUs take to wake.
func sparseDriftScale() experiment.Scale {
	s := experiment.Medium()
	s.SparseNumAS, s.SparseRoutersPerAS, s.SparsePaths = 80, 5, 200
	return s
}

// smokeSpecs shrinks every workload to Brite/Sparse Small(), a
// 200-interval window and a solver tick of at most 100 ms (a lock-step
// prefill waits one tick per batch): the same four daemon
// configurations and code paths at a size the test suite can afford.
func smokeSpecs() []spec {
	out := specs()
	for i := range out {
		for j := range out[i].members {
			out[i].members[j].scale = experiment.Small()
		}
		out[i].window = 200
		out[i].recompute = min(out[i].recompute, 100*time.Millisecond)
		out[i].poolCap = 400
		if out[i].prefillBatch > 100 {
			out[i].prefillBatch = 100
		}
		if out[i].batch > 50 {
			out[i].batch = 50
		}
	}
	return out
}

func findSpec(all []spec, name string) (spec, bool) {
	for _, s := range all {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// solverOpts are the daemon's solver defaults (cmd/tomod's flag
// defaults), repeated here for the offline reference run and the
// in-process traced configuration.
func solverOpts() []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(2),
		estimator.WithAlwaysGoodTol(0.02),
		estimator.WithConcurrency(0),
		estimator.WithNumericalPlanRepair(false),
	}
}

// daemonArgs are the tomod flags of a standalone daemon or coordinator
// for this workload (without -topology, -listen, -role, -peers).
func (s spec) daemonArgs(walDir string) []string {
	args := []string{
		"-window", strconv.Itoa(s.window),
		"-recompute", s.recompute.String(),
		"-algo", s.algo,
		"-log-level", "warn",
	}
	if s.epochEvery > 0 {
		args = append(args, "-epoch-every", strconv.Itoa(s.epochEvery))
	}
	if s.wal {
		args = append(args, "-wal-dir", walDir, "-wal-fsync", "interval")
	}
	return args
}

// load is everything generated for one run of a workload.
//
// spec.traceSeed fixes the workload's trace: which links are
// congestible, their probability schedule, and the simulated
// realisation of every interval. Like the topology it is part of the
// workload. A run's seed picks where in the (cyclic) trace the run
// starts and how the arrival gaps jitter — what differs between two
// days of one deployment — so ten seeds measure the same work ten
// times over instead of ten different amounts of it: the number of
// cold plan rebuilds in 1200 freshly simulated intervals ranged from
// 0 to 24 on the paper-scale stream and from 12 to 35 on the drift
// stream, and with it CPU per interval by a factor of two.
type load struct {
	spec     spec
	top      *topology.Topology
	topoJSON []byte

	// The trace: tracePaths[t] and traceLinks[t] are the observed
	// congested paths and the ground-truth congested links of its
	// interval t. The daemon is sent the trace cyclically from offset.
	tracePaths []*bitset.Set
	traceLinks []*bitset.Set
	offset     int

	prefill [][]byte // pre-encoded lock-step prefill bodies
	bodies  [][]byte // pre-encoded measured bodies, one lap of the trace

	due []time.Duration // due[k]: offset of measured batch k from the window start

	topologyS, streamS float64 // generation wall times
}

// paths returns the observation of the i-th interval the daemon is
// sent (the prefill is intervals 0 … window−1), links its ground truth.
func (ld *load) paths(i int) *bitset.Set { return ld.tracePaths[(ld.offset+i)%len(ld.tracePaths)] }
func (ld *load) links(i int) *bitset.Set { return ld.traceLinks[(ld.offset+i)%len(ld.traceLinks)] }

// pathsRange returns the observations of sent intervals [from, to).
func (ld *load) pathsRange(from, to int) []*bitset.Set {
	out := make([]*bitset.Set, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, ld.paths(i))
	}
	return out
}

// federate builds the disjoint union of the member topologies: every
// id space (links, paths, correlation sets, router links, ASes) is
// offset so members share nothing, which gives the union exactly one
// partition shard per member.
func federate(members []*topology.Topology) (*topology.Topology, error) {
	if len(members) == 1 {
		return members[0], nil
	}
	var links []topology.Link
	var paths []topology.Path
	var corr [][]int
	linkOff, pathOff, routerOff, asOff := 0, 0, 0, 0
	for k, m := range members {
		maxRouter, maxAS := -1, -1
		for _, l := range m.Links {
			nl := topology.Link{ID: l.ID + linkOff, Name: fmt.Sprintf("m%d:%s", k, l.Name), AS: l.AS}
			if l.AS >= 0 {
				nl.AS = l.AS + asOff
				maxAS = max(maxAS, l.AS)
			}
			for _, r := range l.RouterLinks {
				nl.RouterLinks = append(nl.RouterLinks, r+routerOff)
				maxRouter = max(maxRouter, r)
			}
			links = append(links, nl)
		}
		for _, p := range m.Paths {
			np := topology.Path{ID: p.ID + pathOff, Name: fmt.Sprintf("m%d:%s", k, p.Name)}
			for _, li := range p.Links {
				np.Links = append(np.Links, li+linkOff)
			}
			paths = append(paths, np)
		}
		sets := m.CorrSets
		if len(sets) == 0 { // implicit singletons must become explicit in a union
			for li := range m.Links {
				sets = append(sets, []int{li})
			}
		}
		for _, set := range sets {
			ns := make([]int, len(set))
			for i, li := range set {
				ns[i] = li + linkOff
			}
			corr = append(corr, ns)
		}
		linkOff += m.NumLinks()
		pathOff += m.NumPaths()
		routerOff += maxRouter + 1
		asOff += maxAS + 1
	}
	return topology.NewChecked(links, paths, corr)
}

// generate builds the topology, simulates the observation stream and
// pre-encodes every HTTP body and due time for a run of the given
// length. The same (spec, seed, seconds) gives byte-identical output.
func generate(s spec, seed int64, seconds float64) (*load, error) {
	ld := &load{spec: s}
	t0 := time.Now()
	tops := make([]*topology.Topology, len(s.members))
	for k, m := range s.members {
		top, err := experiment.BuildTopology(m.kind, m.scale, m.seed)
		if err != nil {
			return nil, fmt.Errorf("building member %d topology: %w", k, err)
		}
		tops[k] = top
	}
	top, err := federate(tops)
	if err != nil {
		return nil, fmt.Errorf("federating topologies: %w", err)
	}
	ld.top = top
	var buf bytes.Buffer
	if err := top.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding topology: %w", err)
	}
	ld.topoJSON = buf.Bytes()
	ld.topologyS = time.Since(t0).Seconds()

	t0 = time.Now()
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	for at.Seconds() < seconds {
		ld.due = append(ld.due, at)
		at += time.Duration(float64(s.meanGap) * (0.5 + rng.Float64()))
	}
	// One lap of the trace is what a run of this length consumes at the
	// nominal rate (so every seed measures the whole lap once), at
	// least a window and at most poolCap intervals: longer runs cycle.
	lap := int(seconds/s.meanGap.Seconds()) * s.batch
	lap = min(max(lap, s.window), s.poolCap)
	lap -= lap % s.batch
	ld.offset = rng.Intn(lap)

	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.NonStationary = s.nonStationary
	mc.PacketsPerPath = 1000
	models := make([]*netsim.Model, len(tops))
	rngs := make([]*rand.Rand, len(tops))
	for k, mt := range tops {
		rngs[k] = rand.New(rand.NewSource(s.traceSeed + int64(k)))
		m, err := netsim.NewModel(mt, mc, lap, rngs[k])
		if err != nil {
			return nil, fmt.Errorf("building member %d congestion model: %w", k, err)
		}
		models[k] = m
	}
	ld.tracePaths = make([]*bitset.Set, lap)
	ld.traceLinks = make([]*bitset.Set, lap)
	for t := 0; t < lap; t++ {
		ps, ls := bitset.New(top.NumPaths()), bitset.New(top.NumLinks())
		pathOff, linkOff := 0, 0
		for k, m := range models {
			obs := m.Interval(t, rngs[k])
			obs.CongestedPaths.ForEach(func(p int) bool { ps.Add(p + pathOff); return true })
			obs.CongestedLinks.ForEach(func(l int) bool { ls.Add(l + linkOff); return true })
			pathOff += tops[k].NumPaths()
			linkOff += tops[k].NumLinks()
		}
		ld.tracePaths[t], ld.traceLinks[t] = ps, ls
	}
	encode := func(from, to int) ([]byte, error) {
		req := server.ObservationsRequest{Intervals: make([]server.IntervalObs, 0, to-from)}
		for _, ps := range ld.pathsRange(from, to) {
			idx := ps.Indices()
			if idx == nil {
				idx = []int{}
			}
			req.Intervals = append(req.Intervals, server.IntervalObs{CongestedPaths: idx})
		}
		return json.Marshal(req)
	}
	for from := 0; from < s.window; from += s.prefillBatch {
		b, err := encode(from, min(from+s.prefillBatch, s.window))
		if err != nil {
			return nil, err
		}
		ld.prefill = append(ld.prefill, b)
	}
	for from := s.window; from < s.window+lap && len(ld.bodies) < len(ld.due); from += s.batch {
		b, err := encode(from, from+s.batch)
		if err != nil {
			return nil, err
		}
		ld.bodies = append(ld.bodies, b)
	}
	ld.streamS = time.Since(t0).Seconds()
	return ld, nil
}

// seqAfter is the ingest sequence the daemon must acknowledge for
// measured batch k: the harness is the only writer.
func (ld *load) seqAfter(k int) uint64 {
	return uint64(ld.spec.window + (k+1)*ld.spec.batch)
}

package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// planFingerprint hashes everything the cold build decides, in the
// order it decided it: the subset universe in registration order, the
// selected path sets and their rows in selection order, the reduced
// system handed to QR, and the solve's rank and nullity. The counts
// ride along in clear so a mismatch says roughly where it is.
func planFingerprint(pl *Plan, res *Result) string {
	h := sha256.New()
	put := func(vs ...int) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
	}
	putSet := func(s *bitset.Set) {
		idx := s.AppendIndices(nil)
		put(len(idx))
		put(idx...)
	}
	put(len(pl.subsets))
	for _, s := range pl.subsets {
		put(s.corrSet)
		putSet(s.links)
	}
	put(len(pl.pathSets))
	for i, p := range pl.pathSets {
		putSet(p)
		put(len(pl.rows[i]))
		put(pl.rows[i]...)
	}
	put(len(pl.activeRows))
	for _, a := range pl.activeRows {
		if a {
			put(1)
		} else {
			put(0)
		}
	}
	put(len(pl.colMap))
	put(pl.colMap...)
	put(res.Rank, res.Nullity)
	return fmt.Sprintf("%x subsets=%d pathsets=%d rank=%d nullity=%d",
		h.Sum(nil)[:12], len(pl.subsets), len(pl.pathSets), res.Rank, res.Nullity)
}

// smallTopology regenerates experiment.BuildTopology(kind,
// experiment.Small(), 1) — that package imports this one, so its two
// generator calls are repeated here with Small()'s dimensions.
func smallTopology(t *testing.T, sparse bool) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	if !sparse {
		cfg := brite.DefaultConfig()
		cfg.NumAS, cfg.RoutersPerAS = 40, 4
		top, _, err := brite.ASLevelTopology(cfg, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	cfg := traceroute.DefaultConfig()
	cfg.Internet.NumAS, cfg.Internet.RoutersPerAS, cfg.TargetPaths = 60, 5, 120
	c, err := traceroute.Run(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c.Topology
}

// simulateInto feeds n intervals of the Random Congestion scenario
// (seed 1) over top into add: probed at Small() scale, or with perfect
// end-to-end monitoring as planRepairFixture streams them.
func simulateInto(t *testing.T, top *topology.Topology, perfect bool, n int, add func(*bitset.Set)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	if perfect {
		mc.PerfectE2E = true
	} else {
		mc.PacketsPerPath = 800 // experiment.Small()
	}
	model, err := netsim.NewModel(top, mc, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < n; ti++ {
		add(model.Interval(ti, rng).CongestedPaths)
	}
}

// TestPlanFingerprintGolden pins the cold plan against fingerprints
// recorded from the serial builder before the parallel build was
// deleted (ISSUE 21): registration order, selection order, the reduced
// system and the rank must not move when the builder is restructured.
// The fixtures are the two Small-scale topologies, the Small-sparse
// streaming window of the root package's planRepairFixture, one
// RestrictCorrSets shard of the two-component Sparse topology, and the
// three fixtures of the cross-worker-count suite this test replaced.
func TestPlanFingerprintGolden(t *testing.T) {
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}

	briteTop, sparseTop := smallTopology(t, false), smallTopology(t, true)
	briteRec := stream.NewWindow(briteTop.NumPaths(), 200)
	simulateInto(t, briteTop, false, 200, briteRec.Add)
	sparseRec := stream.NewWindow(sparseTop.NumPaths(), 200)
	simulateInto(t, sparseTop, false, 200, sparseRec.Add)
	window := stream.NewWindow(sparseTop.NumPaths(), 1000)
	simulateInto(t, sparseTop, true, 1200, window.Add)

	part := topology.NewPartition(sparseTop)
	if part.NumShards() != 2 {
		t.Fatalf("Sparse Small seed 1 has %d components, want 2", part.NumShards())
	}
	shardCfg := cfg
	shardCfg.RestrictCorrSets = part.ShardCorrSets(0)

	fig1Top, fig1Rec := simulateFig1Case1(t, 0.3, 0.4, 0.2, 800, 13)
	driftTop := driftTopology(t)
	driftWin := stream.NewWindow(driftTop.NumPaths(), 400)
	driftEpoch(driftWin, rand.New(rand.NewSource(5)), driftTop.NumPaths(), 400, false)
	driftShardCfg := cfg
	driftShardCfg.RestrictCorrSets = []int{3} // the component with congestion in it

	for _, tc := range []struct {
		name string
		top  *topology.Topology
		rec  observe.Store
		cfg  Config
		want string
	}{
		{"brite-small", briteTop, briteRec, cfg,
			"b0db563c3d6086bc1184347e subsets=34 pathsets=35 rank=34 nullity=0"},
		{"sparse-small", sparseTop, sparseRec, cfg,
			"1458414d0b21aded074a65d2 subsets=140 pathsets=92 rank=17 nullity=123"},
		{"stream-window", sparseTop, window, cfg,
			"13e155894885b3aa60136915 subsets=116 pathsets=76 rank=12 nullity=104"},
		{"federation-shard", sparseTop, sparseRec, shardCfg,
			"7a5b1320af41f2a5f5780cbd subsets=139 pathsets=91 rank=16 nullity=123"},
		{"fig1", fig1Top, fig1Rec, Config{MaxSubsetSize: 2},
			"0a06655e5776c8203eda38d5 subsets=5 pathsets=5 rank=5 nullity=0"},
		{"drift-topology", driftTop, driftWin, cfg,
			"3e68d164b0dd113814ec9eac subsets=3 pathsets=3 rank=3 nullity=0"},
		{"restricted-shard", driftTop, driftWin, driftShardCfg,
			"3e68d164b0dd113814ec9eac subsets=3 pathsets=3 rank=3 nullity=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := buildPlan(context.Background(), tc.top, tc.rec, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.solveEpoch(context.Background(), tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := planFingerprint(pl, res); got != tc.want {
				t.Errorf("plan fingerprint moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestAugmentCandidateCountGolden pins how many candidate path sets
// augmentation evaluates on the golden fixtures whose augmentation does
// real work. The per-subset cursors evaluate each candidate at most
// once; restarting every subset's enumeration each round evaluated
// 1 / 2,732 / 2,644 / 2,731 to commit the same path sets (which
// TestPlanFingerprintGolden pins).
func TestAugmentCandidateCountGolden(t *testing.T) {
	cfg := Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	briteTop, sparseTop := smallTopology(t, false), smallTopology(t, true)
	briteRec := stream.NewWindow(briteTop.NumPaths(), 200)
	simulateInto(t, briteTop, false, 200, briteRec.Add)
	sparseRec := stream.NewWindow(sparseTop.NumPaths(), 200)
	simulateInto(t, sparseTop, false, 200, sparseRec.Add)
	window := stream.NewWindow(sparseTop.NumPaths(), 1000)
	simulateInto(t, sparseTop, true, 1200, window.Add)
	shardCfg := cfg
	shardCfg.RestrictCorrSets = topology.NewPartition(sparseTop).ShardCorrSets(0)

	for _, tc := range []struct {
		name                 string
		top                  *topology.Topology
		rec                  observe.Store
		cfg                  Config
		evaluated, committed int
	}{
		{"brite-small", briteTop, briteRec, cfg, 1, 1},
		{"sparse-small", sparseTop, sparseRec, cfg, 2623, 6},
		{"stream-window", sparseTop, window, cfg, 2508, 6},
		{"federation-shard", sparseTop, sparseRec, shardCfg, 2622, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			b := newBuilder(tc.top, tc.rec, tc.cfg)
			defer b.close()
			if err := b.enumerate(ctx); err != nil {
				t.Fatal(err)
			}
			if err := b.seed(ctx); err != nil {
				t.Fatal(err)
			}
			seeds := len(b.rows)
			if err := b.augment(ctx); err != nil {
				t.Fatal(err)
			}
			if b.evaluated != tc.evaluated || len(b.rows)-seeds != tc.committed {
				t.Errorf("evaluated %d candidates to commit %d, want %d and %d",
					b.evaluated, len(b.rows)-seeds, tc.evaluated, tc.committed)
			}
		})
	}
}

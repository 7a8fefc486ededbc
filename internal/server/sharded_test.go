package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/stream"
	"repro/internal/topology"
)

// shardedTestTopology builds a topology whose correlation-set partition
// has at least two shards, so an epoch genuinely solves and merges
// several blocks (the Sparse family at this scale splits in two).
func shardedTestTopology(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := topology.NewPartition(top).NumShards(); n < 2 {
		t.Fatalf("test topology has %d shards, want ≥ 2", n)
	}
	return top
}

// TestEndToEndShardedStreaming is the acceptance test of sharded mode,
// run under -race in CI: sharded ingest over real HTTP with concurrent
// queries crossing shard epoch boundaries, per-shard status invariants
// throughout, and a final synchronous epoch that must bit-match an
// offline replay through the registry's sharded estimator.
func TestEndToEndShardedStreaming(t *testing.T) {
	const totalIntervals, windowSize = 4000, 1000
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize:     windowSize,
		RecomputeEvery: 10 * time.Millisecond,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     solverOpts(),
	})
	if s.NumShards() < 2 {
		t.Fatalf("server runs %d shard solvers, want ≥ 2", s.NumShards())
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Concurrent readers: status (with per-shard invariants), links and
	// subsets, racing the shard epoch boundaries.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var readerErrs []string
	fail := func(format string, args ...any) {
		mu.Lock()
		readerErrs = append(readerErrs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			lastShardEpochs := map[int]uint64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				var st StatusResponse
				code, err := fetchJSON(ts.Client(), ts.URL+"/v1/status", &st)
				if err != nil {
					fail("%v", err)
					return
				}
				if code != 200 {
					fail("status returned %d", code)
					return
				}
				if st.Epoch < lastEpoch {
					fail("merged epoch went backwards: %d then %d", lastEpoch, st.Epoch)
					return
				}
				lastEpoch = st.Epoch
				if len(st.Shards) != s.NumShards() {
					fail("status lists %d shards, want %d", len(st.Shards), s.NumShards())
					return
				}
				for _, sh := range st.Shards {
					if sh.Epoch < lastShardEpochs[sh.Shard] {
						fail("shard %d epoch went backwards: %d then %d", sh.Shard, lastShardEpochs[sh.Shard], sh.Epoch)
						return
					}
					lastShardEpochs[sh.Shard] = sh.Epoch
					if sh.SeqHigh > st.IngestedSeq {
						fail("shard %d solved ahead of ingest: %d > %d", sh.Shard, sh.SeqHigh, st.IngestedSeq)
						return
					}
					if sh.Paths <= 0 || sh.Links <= 0 {
						fail("shard %d reports empty universe: %+v", sh.Shard, sh)
						return
					}
				}
				var lr LinkResponse
				code, err = fetchJSON(ts.Client(), ts.URL+"/v1/links/"+[]string{"0", "1", "2"}[g], &lr)
				if err != nil {
					fail("%v", err)
					return
				}
				switch code {
				case 503:
					// No merged snapshot yet (some shard hasn't solved).
				case 200:
					if lr.CongestProb < 0 || lr.CongestProb > 1 || math.IsNaN(lr.CongestProb) {
						fail("link prob out of range: %v", lr.CongestProb)
						return
					}
					if lr.Algorithm != estimator.CorrelationCompleteSharded {
						fail("link answered by %q", lr.Algorithm)
						return
					}
				default:
					fail("link returned %d", code)
					return
				}
				var sr SubsetsResponse
				code, err = fetchJSON(ts.Client(), ts.URL+"/v1/subsets", &sr)
				if err != nil {
					fail("%v", err)
					return
				}
				if code == 200 && sr.Total != len(sr.Subsets) {
					fail("subsets total %d but %d listed", sr.Total, len(sr.Subsets))
					return
				}
			}
		}(g)
	}

	// Drive simulated intervals at the server over HTTP.
	simCfg := netsim.DefaultConfig(netsim.RandomCongestion)
	simCfg.PerfectE2E = true
	loadCfg := loadConfig{
		Target:    ts.URL,
		Intervals: totalIntervals,
		BatchSize: 100,
		Seed:      5,
		Sim:       simCfg,
		Client:    ts.Client(),
	}
	sent, err := runLoadGen(context.Background(), top, loadCfg)
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	for _, msg := range readerErrs {
		t.Error(msg)
	}
	if sent != totalIntervals {
		t.Fatalf("loadgen sent %d intervals, want %d", sent, totalIntervals)
	}

	// Final synchronous epoch: every shard solved at the same sequence.
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatalf("solver: %v", snap.Err)
	}
	if snap.SeqHigh != totalIntervals || snap.T != windowSize {
		t.Fatalf("snapshot seq %d T %d, want %d/%d", snap.SeqHigh, snap.T, totalIntervals, windowSize)
	}
	if len(snap.Shards) != s.NumShards() {
		t.Fatalf("snapshot carries %d shard blocks, want %d", len(snap.Shards), s.NumShards())
	}
	for _, sh := range snap.Shards {
		if sh.SeqHigh != totalIntervals {
			t.Fatalf("shard %d solved at seq %d, want %d", sh.Shard, sh.SeqHigh, totalIntervals)
		}
	}

	// A quiescent re-solve must warm-start every shard (no always-good
	// drift without new data) and stay bit-identical.
	snap2 := s.Recompute(nil)
	if snap2.Err != nil {
		t.Fatal(snap2.Err)
	}
	for _, sh := range snap2.Shards {
		if !sh.Warm {
			t.Fatalf("quiescent re-solve of shard %d did not warm-start", sh.Shard)
		}
	}
	for e := 0; e < top.NumLinks(); e++ {
		p1, x1 := snap.Est.LinkCongestProb(e)
		p2, x2 := snap2.Est.LinkCongestProb(e)
		if p1 != p2 || x1 != x2 {
			t.Fatalf("link %d: quiescent epochs disagree: (%v,%v) vs (%v,%v)", e, p1, x1, p2, x2)
		}
	}

	// Offline replay: rebuild the exact stream, keep the surviving
	// intervals in a fresh window, and solve through the registry's
	// sharded estimator. The streamed result must be bit-identical.
	rng := rand.New(rand.NewSource(loadCfg.Seed))
	model, err := netsim.NewModel(top, simCfg, totalIntervals, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), windowSize)
	for ti := 0; ti < totalIntervals; ti++ {
		obs := model.Interval(ti, rng)
		if ti >= totalIntervals-windowSize {
			rec.Add(obs.CongestedPaths)
		}
	}
	est, err := estimator.New(estimator.CorrelationCompleteSharded)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := est.Estimate(context.Background(), top, rec, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < top.NumLinks(); e++ {
		want, wantExact := ref.LinkCongestProb(e)
		got, gotExact := snap.Est.LinkCongestProb(e)
		if got != want || gotExact != wantExact {
			t.Fatalf("link %d: streamed shards (%v,%v) != offline replay (%v,%v)",
				e, got, gotExact, want, wantExact)
		}
	}
}

// The in-process loop must publish merged snapshots of every shard on
// its own as data arrives, and stop once quiescent.
func TestShardedRecomputeLoop(t *testing.T) {
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize:     300,
		RecomputeEvery: 5 * time.Millisecond,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     solverOpts(),
	})
	s.Start()
	defer s.Close()

	rng := rand.New(rand.NewSource(9))
	simCfg := netsim.DefaultConfig(netsim.RandomCongestion)
	simCfg.PerfectE2E = true
	model, err := netsim.NewModel(top, simCfg, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 400; ti++ {
		s.Ingest([]*bitset.Set{model.Interval(ti, rng).CongestedPaths})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Latest()
		if snap != nil && snap.SeqHigh == 400 {
			allCaught := true
			for _, sh := range snap.Shards {
				if sh.SeqHigh != 400 {
					allCaught = false
				}
			}
			if allCaught {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("shard loops never caught up with ingest")
		}
		time.Sleep(time.Millisecond)
	}
	e1 := s.Latest().Epoch
	time.Sleep(30 * time.Millisecond)
	if e2 := s.Latest().Epoch; e2 != e1 {
		t.Fatalf("merged epoch advanced with no new data: %d then %d", e1, e2)
	}
}

// An in-process sharded epoch is one solve of one window: every
// snapshot its loop publishes merges shard blocks all solved at the
// snapshot's own sequence, and its estimate is the offline sharded
// estimate of its window, bit for bit. The invariant holds for every
// snapshot, so checking each one observed cannot flake.
func TestShardedEpochsAreWholeWindowSolves(t *testing.T) {
	const total, perBatch = 600, 5
	top := shardedTestTopology(t)
	s := newServer(t, top, Config{
		WindowSize:     300,
		RecomputeEvery: time.Millisecond,
		Algo:           estimator.CorrelationCompleteSharded,
		SolverOpts:     solverOpts(),
	})
	s.Start()
	defer s.Close()

	var last *Snapshot
	check := func() {
		snap := s.Latest()
		if snap == nil || snap == last {
			return
		}
		last = snap
		if len(snap.Shards) != s.NumShards() {
			t.Fatalf("epoch %d merges %d shard blocks, want %d", snap.Epoch, len(snap.Shards), s.NumShards())
		}
		for _, sh := range snap.Shards {
			if sh.SeqHigh != snap.SeqHigh {
				t.Fatalf("epoch %d at seq %d merges shard %d solved at seq %d", snap.Epoch, snap.SeqHigh, sh.Shard, sh.SeqHigh)
			}
		}
	}
	batches := simulatedBatches(t, top, total)
	for i := 0; i < total; i += perBatch {
		if _, err := s.Ingest(batches[i : i+perBatch]); err != nil {
			t.Fatal(err)
		}
		check()
	}
	deadline := time.Now().Add(30 * time.Second)
	for last == nil || last.SeqHigh != total {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot at seq %d was published", total)
		}
		time.Sleep(100 * time.Microsecond)
		check()
	}
	if last.Err != nil {
		t.Fatal(last.Err)
	}
	est, err := estimator.New(estimator.CorrelationCompleteSharded)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := est.Estimate(context.Background(), top, last.Window, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < top.NumLinks(); e++ {
		want, wantExact := ref.LinkCongestProb(e)
		got, gotExact := last.Est.LinkCongestProb(e)
		if math.Float64bits(got) != math.Float64bits(want) || gotExact != wantExact {
			t.Fatalf("link %d: epoch %d (%v,%v) != offline solve of its window (%v,%v)",
				e, last.Epoch, got, gotExact, want, wantExact)
		}
	}
}

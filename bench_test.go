// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation and scaling benches for the design choices
// called out in DESIGN.md. Benchmarks run at the Small experiment scale
// so `go test -bench=.` finishes quickly; cmd/tomo regenerates the same
// artifacts at medium/paper scale.
//
// Each figure benchmark reports, via b.ReportMetric, the headline
// quantity of the corresponding panel so that bench output doubles as a
// compact reproduction record.
package tomography

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wal"
)

func benchCfg() experiment.Config {
	return experiment.DefaultConfig(experiment.Small())
}

// BenchmarkTable2 regenerates the assumption matrix (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiment.RenderTable2(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3DetectionRate regenerates Figure 3(a): detection rate
// of the three Boolean Inference algorithms over the five scenarios.
func BenchmarkFigure3DetectionRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: Bayesian-Correlation's detection on the Sparse
		// topology (the paper's "as low as 68%" regime).
		b.ReportMetric(rows[4].Detection["Bayesian-Correlation"], "sparse-detect")
		b.ReportMetric(rows[0].Detection["Sparsity"], "brite-detect")
	}
}

// BenchmarkFigure3FalsePositiveRate regenerates Figure 3(b).
func BenchmarkFigure3FalsePositiveRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[4].FalsePositive["Bayesian-Independence"], "sparse-fpr")
		b.ReportMetric(rows[0].FalsePositive["Sparsity"], "brite-fpr")
	}
}

// BenchmarkFigure4aBrite regenerates Figure 4(a): mean absolute error
// of the three Probability Computation algorithms on Brite topologies.
func BenchmarkFigure4aBrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure4(benchCfg(), experiment.Brite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].MeanErr("Correlation-complete"), "noindep-complete-err")
		b.ReportMetric(rows[2].MeanErr("Independence"), "noindep-indep-err")
	}
}

// BenchmarkFigure4bSparse regenerates Figure 4(b): the same comparison
// on Sparse topologies.
func BenchmarkFigure4bSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure4(benchCfg(), experiment.Sparse)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].MeanErr("Correlation-complete"), "noindep-complete-err")
		b.ReportMetric(rows[2].MeanErr("Independence"), "noindep-indep-err")
	}
}

// BenchmarkFigure4cCDF regenerates Figure 4(c): the CDF of the absolute
// error in the No-Independence scenario on Sparse topologies.
func BenchmarkFigure4cCDF(b *testing.B) {
	points := []float64{0, 0.1, 0.2, 0.5, 1}
	for i := 0; i < b.N; i++ {
		curves, err := experiment.Figure4CDF(benchCfg(), points)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: fraction of links with error < 0.1 per algorithm
		// (the paper reports 80% / 65% / 50%).
		b.ReportMetric(curves["Correlation-complete"][1], "complete-cdf@0.1")
		b.ReportMetric(curves["Correlation-heuristic"][1], "heuristic-cdf@0.1")
		b.ReportMetric(curves["Independence"][1], "indep-cdf@0.1")
	}
}

// BenchmarkFigure4dSubsets regenerates Figure 4(d): link vs
// correlation-subset error of Correlation-complete.
func BenchmarkFigure4dSubsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiment.Figure4Subsets(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].SubsetErr, "brite-subset-err")
		b.ReportMetric(cells[1].SubsetErr, "sparse-subset-err")
	}
}

// BenchmarkAlgorithm1Scaling measures how Correlation-complete scales
// with topology size (§5.3's complexity discussion: O(n1³ + n1²·2^n2·n3)).
func BenchmarkAlgorithm1Scaling(b *testing.B) {
	for _, numAS := range []int{10, 20, 40} {
		b.Run(sizeName(numAS), func(b *testing.B) {
			scale := experiment.Small()
			scale.BriteNumAS = numAS
			scale.BritePaths = numAS * 6
			top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			mc := netsim.DefaultConfig(netsim.NoIndependence)
			mc.PacketsPerPath = scale.PacketsPerPath
			model, err := netsim.NewModel(top, mc, scale.Intervals, rng)
			if err != nil {
				b.Fatal(err)
			}
			rec := stream.NewWindow(top.NumPaths(), scale.Intervals)
			for t := 0; t < scale.Intervals; t++ {
				rec.Add(model.Interval(t, rng).CongestedPaths)
			}
			cfg := core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(context.Background(), top, rec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSubsetSize compares the resource knob's settings
// (§4: "sets of one, two, or three links"): larger subsets cost more
// and identify more.
func BenchmarkAblationSubsetSize(b *testing.B) {
	scale := experiment.Small()
	top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.NoIndependence)
	mc.PacketsPerPath = scale.PacketsPerPath
	model, err := netsim.NewModel(top, mc, scale.Intervals, rng)
	if err != nil {
		b.Fatal(err)
	}
	rec := stream.NewWindow(top.NumPaths(), scale.Intervals)
	for t := 0; t < scale.Intervals; t++ {
		rec.Add(model.Interval(t, rng).CongestedPaths)
	}
	for _, k := range []int{1, 2, 3} {
		b.Run(sizeName(k), func(b *testing.B) {
			cfg := core.Config{MaxSubsetSize: k, AlwaysGoodTol: 0.02}
			var identified int
			for i := 0; i < b.N; i++ {
				res, err := core.Compute(context.Background(), top, rec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				identified = 0
				for _, s := range res.Subsets {
					if s.Identifiable {
						identified++
					}
				}
			}
			b.ReportMetric(float64(identified), "identified-subsets")
		})
	}
}

// BenchmarkNullSpaceUpdate measures Algorithm 2 (the incremental
// null-space update) against full recomputation, the paper's stated
// reason for introducing it.
func BenchmarkNullSpaceUpdate(b *testing.B) {
	const n = 300
	rng := rand.New(rand.NewSource(1))
	base := linalg.NewMatrix(40, n)
	for i := range base.Data {
		if rng.Intn(6) == 0 {
			base.Data[i] = 1
		}
	}
	ns := linalg.NullSpaceBasis(base)
	row := make([]float64, n)
	for j := range row {
		if rng.Intn(6) == 0 {
			row[j] = 1
		}
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.NullSpaceUpdate(ns, row)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		grown := base.AppendRow(row)
		for i := 0; i < b.N; i++ {
			linalg.NullSpaceBasis(grown)
		}
	})
}

// BenchmarkBinomialSampler measures both branches of the probe sampler.
func BenchmarkBinomialSampler(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.Run("inversion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netsim.Binomial(50, 0.02, rng)
		}
	})
	b.Run("normal-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			netsim.Binomial(1000, 0.5, rng)
		}
	})
}

func sizeName(n int) string { return strconv.Itoa(n) }

// BenchmarkGoodCount compares the columnar empirical-frequency query
// (per-path congestion masks, OR + popcount, allocation-free) against
// a naive scan of the benchmark's own rows at the paper's interval
// count, over a window sized to hold them all. This is the innermost
// query of every equation the solvers build.
func BenchmarkGoodCount(b *testing.B) {
	const numPaths, intervals = 1500, 1000
	rng := rand.New(rand.NewSource(1))
	rec := stream.NewWindow(numPaths, intervals)
	rows := make([]*bitset.Set, intervals)
	for t := range rows {
		s := bitset.New(numPaths)
		for p := 0; p < numPaths; p++ {
			if rng.Intn(5) == 0 {
				s.Add(p)
			}
		}
		rec.Add(s)
		rows[t] = s
	}
	paths := bitset.New(numPaths)
	for paths.Count() < 8 {
		paths.Add(rng.Intn(numPaths))
	}
	goodCountNaive := func() int {
		n := 0
		for _, row := range rows {
			if !paths.Intersects(row) {
				n++
			}
		}
		return n
	}
	allCongestedCountNaive := func() int {
		n := 0
		for _, row := range rows {
			if paths.SubsetOf(row) {
				n++
			}
		}
		return n
	}
	if got, want := rec.GoodCount(paths), goodCountNaive(); got != want {
		b.Fatalf("columnar GoodCount %d != naive %d", got, want)
	}
	if got, want := rec.AllCongestedCount(paths), allCongestedCountNaive(); got != want {
		b.Fatalf("columnar AllCongestedCount %d != naive %d", got, want)
	}
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.GoodCount(paths)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			goodCountNaive()
		}
	})
	b.Run("columnar-allcongested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.AllCongestedCount(paths)
		}
	})
	b.Run("naive-allcongested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			allCongestedCountNaive()
		}
	})
}

// The streaming-store benchmarks run at the paper's scale: 1500 paths
// over a 1000-interval window, a fifth of the paths congested per
// interval.
const streamBenchPaths, streamBenchWindow = 1500, 1000

func streamBenchPool(rng *rand.Rand) []*bitset.Set {
	pool := make([]*bitset.Set, 64)
	for i := range pool {
		s := bitset.New(streamBenchPaths)
		for p := 0; p < streamBenchPaths; p++ {
			if rng.Intn(5) == 0 {
				s.Add(p)
			}
		}
		pool[i] = s
	}
	return pool
}

// warmStreamWindow returns a full window past its first lap: every ring
// slot and per-path mask exists, so what follows is steady state.
func warmStreamWindow(pool []*bitset.Set) *stream.Window {
	w := stream.NewWindow(streamBenchPaths, streamBenchWindow)
	for i := 0; i < 2*streamBenchWindow; i++ {
		w.Add(pool[i%len(pool)])
	}
	return w
}

// BenchmarkStreamIngest measures the streaming store's steady-state
// ingest path at the paper's path-universe scale: each Add evicts the
// oldest interval of a full ring and must not allocate (the ring and
// the per-path masks are warm after the first lap). The windowed
// queries are benchmarked alongside since the solver loop issues them
// against the same layout.
func BenchmarkStreamIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pool := streamBenchPool(rng)
	b.Run("add-evict", func(b *testing.B) {
		w := warmStreamWindow(pool)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Add(pool[i%len(pool)])
		}
		b.ReportMetric(float64(w.T()), "window-intervals")
	})
	b.Run("add-evict-wal", func(b *testing.B) {
		// Durable variant: the same steady-state eviction loop with a
		// WAL attached (fsync=interval, the default). The append
		// encodes into a reused slab and issues one Write, so
		// durability must not add a single allocation per interval.
		wl, err := wal.Open(wal.Options{Dir: b.TempDir(), Policy: wal.SyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		defer wl.Close()
		w := warmStreamWindow(pool)
		w.SetLog(wl)
		batch := make([]*bitset.Set, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch[0] = pool[i%len(pool)]
			if _, err := w.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(w.T()), "window-intervals")
	})
	paths := bitset.New(streamBenchPaths)
	for paths.Count() < 8 {
		paths.Add(rng.Intn(streamBenchPaths))
	}
	b.Run("windowed-goodcount", func(b *testing.B) {
		w := warmStreamWindow(pool)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.GoodCount(paths)
		}
	})
	b.Run("windowed-allcongested", func(b *testing.B) {
		w := warmStreamWindow(pool)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.AllCongestedCount(paths)
		}
	})
}

// BenchmarkWindowFreeze measures what an epoch pays to freeze the live
// window (stream.Window.Clone, copy-on-write): the freeze alone — the
// row-pointer table, mask headers and counters, a fixed handful of
// allocations whatever the window holds — and the freeze followed by
// the one Add every interval brings on the stride path, which replaces
// one row and copies one mask per path it touches; and a second
// stream.Window.Freeze at an unchanged sequence, which every shard
// solve and merge after the first at one sequence pays, and which must
// hand back the first one's clone without allocating. Under the alloc
// gate so a freeze can never quietly grow back into a deep copy.
func BenchmarkWindowFreeze(b *testing.B) {
	var frozen *stream.Window // kept reachable, like a published snapshot
	pool := streamBenchPool(rand.New(rand.NewSource(1)))
	// A daemon freezes into memory the collector has already recycled;
	// a cold benchmark heap would instead charge every freeze ≈ 15 page
	// faults (3× the copy itself at short -benchtime). Grow the heap
	// past what a GC cycle of freezes needs, once.
	warmHeap := func(w *stream.Window) {
		for i := 0; i < 256; i++ {
			frozen = w.Clone()
		}
		runtime.GC()
	}
	b.Run("clone", func(b *testing.B) {
		w := warmStreamWindow(pool)
		warmHeap(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frozen = w.Clone()
		}
	})
	b.Run("clone+add", func(b *testing.B) {
		w := warmStreamWindow(pool)
		warmHeap(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frozen = w.Clone()
			w.Add(pool[i%len(pool)])
		}
	})
	b.Run("refreeze", func(b *testing.B) {
		w := warmStreamWindow(pool)
		frozen = w.Freeze()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frozen = w.Freeze()
		}
	})
	runtime.KeepAlive(frozen)
}

// BenchmarkShardedEpochSolve measures one streaming epoch of the
// sharded solver over a multi-shard topology — every shard block solved
// over the same whole window, then merged — comparing the from-scratch path (fresh solver, no
// carried-forward plans) against the warm-started path (retained
// solver, always-good set stable across epochs). The warm path is the
// steady state of tomod's per-shard loops; the gap is the structural
// work — enumeration, augmentation, identifiability, QR factorization —
// that the carried-forward plan avoids. Results are bit-identical
// either way (TestMetamorphicWarmShardSolves).
func BenchmarkShardedEpochSolve(b *testing.B) {
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	part := topology.NewPartition(top)
	if part.NumShards() < 2 {
		b.Fatalf("topology has %d shards, want ≥ 2", part.NumShards())
	}
	win := stream.NewWindow(top.NumPaths(), 1000)
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 1200; t++ {
		win.Add(model.Interval(t, rng).CongestedPaths)
	}
	opts := []estimator.Option{estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02)}
	epoch := func(b *testing.B, sv *estimator.ShardedSolver) {
		blocks := make([]*core.Result, sv.NumShards())
		for s := range blocks {
			res, _, err := sv.SolveShard(context.Background(), s, win)
			if err != nil {
				b.Fatal(err)
			}
			blocks[s] = res
		}
		if est := sv.Merge(blocks, win); len(est.LinkProb) != top.NumLinks() {
			b.Fatal("malformed merged estimate")
		}
	}
	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sv, err := estimator.NewShardedSolver(top, opts...)
			if err != nil {
				b.Fatal(err)
			}
			epoch(b, sv)
		}
	})
	b.Run("warm-started", func(b *testing.B) {
		sv, err := estimator.NewShardedSolver(top, opts...)
		if err != nil {
			b.Fatal(err)
		}
		epoch(b, sv) // cold epoch builds every shard's plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(b, sv)
		}
	})
}

// BenchmarkSnapshotQuery measures the streaming service's query-side
// latency through the real HTTP handlers (mux, JSON encoding and all)
// against a published solver snapshot, the path a monitoring dashboard
// polls.
func BenchmarkSnapshotQuery(b *testing.B) {
	scale := experiment.Small()
	scale.BriteNumAS = 20
	scale.BritePaths = 80
	top, err := experiment.BuildTopology(experiment.Brite, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := server.New(top, server.Config{
		WindowSize: 500,
		SolverOpts: []estimator.Option{
			estimator.WithMaxSubsetSize(2),
			estimator.WithAlwaysGoodTol(0.02),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, 700, rng)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 700; t++ {
		s.Ingest([]*bitset.Set{model.Interval(t, rng).CongestedPaths})
	}
	if snap := s.Recompute(context.Background()); snap.Err != nil {
		b.Fatal(snap.Err)
	}
	handler := s.Handler()
	serve := func(b *testing.B, method, url string) {
		req := httptest.NewRequest(method, url, nil)
		for i := 0; i < b.N; i++ {
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				b.Fatalf("%s %s: %d", method, url, rw.Code)
			}
		}
	}
	b.Run("link", func(b *testing.B) { serve(b, http.MethodGet, "/v1/links/3") })
	b.Run("status", func(b *testing.B) { serve(b, http.MethodGet, "/v1/status") })
	b.Run("congested-paths", func(b *testing.B) { serve(b, http.MethodGet, "/v1/paths/congested?min=0.25") })
}

// BenchmarkIngestHandler measures POST /v1/observations through
// Server.Handler() — body read, decode and validation, window add and
// the response envelope — on a bulk_ingest-shaped batch: 50 intervals
// of ≈ 365 congested paths over a 1,500-path universe, WAL off. Under
// the alloc gate: decoding allocates one set per interval and nothing
// per index, so a decoder that starts allocating per index shows here.
func BenchmarkIngestHandler(b *testing.B) {
	const numPaths, intervals, congested = 1500, 50, 365
	links := make([]topology.Link, numPaths)
	paths := make([]topology.Path, numPaths)
	for i := range paths {
		links[i] = topology.Link{ID: i, AS: -1}
		paths[i] = topology.Path{ID: i, Links: []int{i}}
	}
	top, err := topology.NewChecked(links, paths, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := server.New(top, server.Config{WindowSize: 1000})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	req := server.ObservationsRequest{Intervals: make([]server.IntervalObs, intervals)}
	for i := range req.Intervals {
		for p := 0; p < numPaths; p++ {
			if rng.Intn(numPaths) < congested {
				req.Intervals[i].CongestedPaths = append(req.Intervals[i].CongestedPaths, p)
			}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	handler := s.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			b.Fatalf("ingest answered %d: %s", rw.Code, rw.Body)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*intervals), "us/interval")
}

// BenchmarkClusterCodec times the two binary bodies a fed_cluster batch
// crosses the wire in. "ingest" encodes and parses a 5-interval batch of
// ≈ 515 congested paths each over a 2,800-path universe — one WAL record,
// the POST /c1/ingest body. "result" encodes and decodes the solved
// block of one Brite Medium() member, the shard a fed_cluster worker
// ships on GET /c1/shards/{k}/result. Under the alloc gate: parsing
// allocates one set per interval or per list and nothing per index.
func BenchmarkClusterCodec(b *testing.B) {
	// The block's solve is set-up, done once: b.Run calls each
	// sub-benchmark several times while it sizes b.N.
	top, err := experiment.BuildTopology(experiment.Brite, experiment.Medium(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model, err := netsim.NewModel(top, netsim.DefaultConfig(netsim.RandomCongestion), 1000, rng)
	if err != nil {
		b.Fatal(err)
	}
	win := stream.NewWindow(top.NumPaths(), 1000)
	for t := 0; t < 1000; t++ {
		win.Add(model.Interval(t, rng).CongestedPaths)
	}
	sv, err := estimator.NewShardedSolver(top, estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02))
	if err != nil {
		b.Fatal(err)
	}
	res, info, err := sv.SolveShard(context.Background(), 0, win)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ingest", func(b *testing.B) {
		const numPaths, intervals, congested = 2800, 5, 515
		rng := rand.New(rand.NewSource(1))
		batch := make([]*bitset.Set, intervals)
		for i := range batch {
			batch[i] = bitset.New(numPaths)
			for p := 0; p < numPaths; p++ {
				if rng.Intn(numPaths) < congested {
					batch[i].Add(p)
				}
			}
		}
		var rec []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec = wal.AppendRecord(rec[:0], uint64(i), batch)
			if _, _, err := wal.ParseRecord(rec, numPaths); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(rec)))
	})
	b.Run("result", func(b *testing.B) {
		block := &cluster.ShardResultResponse{SeqHigh: win.Seq(), T: win.T(), Tier: info.Tier, Result: res}
		var body []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body = block.AppendTo(body[:0])
			if _, err := cluster.ParseShardResult(body, top); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(body)))
		b.ReportMetric(float64(len(res.Subsets)), "subsets")
		b.ReportMetric(float64(len(res.PathSets)), "path-sets")
	})
	b.Run("result-reuse", func(b *testing.B) {
		// Successive epochs of a warm plan: the same structure under
		// new probabilities. Decoding one after the other reads only
		// the per-epoch fields and allocates no bitset.
		later := slices.Clone(res.Subsets)
		for i := range later {
			later[i].GoodProb /= 2
		}
		bodies := [2][]byte{
			(&cluster.ShardResultResponse{SeqHigh: win.Seq(), T: win.T(), Tier: info.Tier, Result: res}).AppendTo(nil),
			(&cluster.ShardResultResponse{SeqHigh: win.Seq() + 5, T: win.T(), Tier: info.Tier,
				Result: core.NewShardResult(later, res.PathSets, res.Rank, res.Nullity, res.ClampedRows)}).AppendTo(nil),
		}
		d := cluster.NewResultDecoder(top)
		if _, err := d.Decode(bodies[1]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Decode(bodies[i%2]); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(bodies[0])))
	})
}

// BenchmarkShardMerge measures the merge a sharded epoch ends with — one
// estimate over every shard's block — on fed_cluster's shape: four
// Brite Medium members, one partition shard each, all four blocks warm.
// Warm blocks keep their plans' structure, so after the first merge the
// merged subset index and path sets are reused (core.MergeCache):
// under the alloc gate so a merge cannot quietly go back to re-keying
// every subset.
func BenchmarkShardMerge(b *testing.B) {
	members := make([]*topology.Topology, 4)
	for k := range members {
		top, err := experiment.BuildTopology(experiment.Brite, experiment.Medium(), int64(k+1))
		if err != nil {
			b.Fatal(err)
		}
		members[k] = top
	}
	top, err := disjointUnion(members)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model, err := netsim.NewModel(top, netsim.DefaultConfig(netsim.RandomCongestion), 1000, rng)
	if err != nil {
		b.Fatal(err)
	}
	win := stream.NewWindow(top.NumPaths(), 1000)
	for t := 0; t < 1000; t++ {
		win.Add(model.Interval(t, rng).CongestedPaths)
	}
	sv, err := estimator.NewShardedSolver(top, estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02))
	if err != nil {
		b.Fatal(err)
	}
	if sv.NumShards() != len(members) {
		b.Fatalf("union of %d members has %d shards", len(members), sv.NumShards())
	}
	blocks := make([]*core.Result, sv.NumShards())
	frozen := win.Freeze()
	for pass := 0; pass < 2; pass++ { // the second pass is warm
		for k := range blocks {
			if blocks[k], _, err = sv.SolveShard(context.Background(), k, frozen); err != nil {
				b.Fatal(err)
			}
		}
	}
	var est *estimator.Estimate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est = sv.Merge(blocks, frozen)
	}
	b.ReportMetric(float64(len(est.Subsets)), "subsets")
}

// disjointUnion builds one topology out of members that share nothing:
// link, path, router-link and correlation-set ids are offset per
// member, so the union partitions into one shard per member.
func disjointUnion(members []*topology.Topology) (*topology.Topology, error) {
	var links []topology.Link
	var paths []topology.Path
	var corr [][]int
	routerOff := 0
	for _, m := range members {
		off, pathOff, maxRouter := len(links), len(paths), -1
		for _, l := range m.Links {
			nl := topology.Link{ID: l.ID + off, AS: l.AS}
			for _, r := range l.RouterLinks {
				nl.RouterLinks = append(nl.RouterLinks, r+routerOff)
				maxRouter = max(maxRouter, r)
			}
			links = append(links, nl)
		}
		routerOff += maxRouter + 1
		for _, p := range m.Paths {
			np := topology.Path{ID: p.ID + pathOff}
			for _, li := range p.Links {
				np.Links = append(np.Links, li+off)
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
				ns[i] = li + off
			}
			corr = append(corr, ns)
		}
	}
	return topology.NewChecked(links, paths, corr)
}

// BenchmarkFigure4Parallel measures the parallel experiment engine:
// the same Figure 4(a) regeneration fanned out over 1, 2 and 4
// workers. Output is bit-identical across worker counts (see
// TestFigure4ParallelMatchesSerial); only wall-clock should move.
func BenchmarkFigure4Parallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(sizeName(workers), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Figure4(cfg, experiment.Brite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// planRepairFixture builds the Small-sparse streaming state behind
// BenchmarkPlanRepair and BenchmarkEpochSolveBatch: a warm unsharded
// plan over a full window, plus a drifted twin of the window in which
// one redundantly covered always-good path turned congested — the
// frontier-stable drift class Plan.Repair absorbs.
func planRepairFixture(b *testing.B) (top *topology.Topology, cfg core.Config, base, drifted *stream.Window) {
	b.Helper()
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg = core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}
	const intervals, capacity = 1200, 1000
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		b.Fatal(err)
	}
	stream2 := make([]*bitset.Set, intervals)
	base = stream.NewWindow(top.NumPaths(), capacity)
	for t := 0; t < intervals; t++ {
		stream2[t] = model.Interval(t, rng).CongestedPaths.Clone()
		base.Add(stream2[t])
	}
	// Pick an always-good path whose links all stay covered by the
	// remaining good paths: congesting it drifts the always-good set
	// without moving the §5.2 frontier.
	good := base.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	goodLinks := top.LinksOf(good)
	drift := -1
	good.ForEach(func(p int) bool {
		rest := good.Clone()
		rest.Remove(p)
		if top.LinksOf(rest).Equal(goodLinks) {
			drift = p
			return false
		}
		return true
	})
	if drift < 0 {
		b.Fatal("no redundantly covered always-good path; fixture cannot drift repairably")
	}
	drifted = stream.NewWindow(top.NumPaths(), capacity)
	for t := 0; t < intervals; t++ {
		s := stream2[t]
		if t%5 == 0 {
			s = s.Clone()
			s.Add(drift)
		}
		drifted.Add(s)
	}
	return top, cfg, base, drifted
}

// BenchmarkPlanRepair measures an epoch solve across an always-good
// drift with the plan repaired in place (core.Plan.Repair re-keys the
// retained structure in O(Δ)) and across a frontier move back to a
// frontier the plan chain retains (recall), against the cold rebuild
// the same drift used to force. Every iteration of the repaired leg really drifts:
// the two windows alternate, so each solve absorbs a fresh always-good
// change. Results are bit-identical (TestPlanRepairMatchesColdUnderDrift
// and the metamorphic drift suite pin this).
func BenchmarkPlanRepair(b *testing.B) {
	top, cfg, base, drifted := planRepairFixture(b)
	ctx := context.Background()
	stores := []*stream.Window{base, drifted}
	// Confirm the fixture's drift is inside the repair class.
	_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	_, next, err := core.ComputePlanned(ctx, top, drifted, cfg, plan)
	if err != nil {
		b.Fatal(err)
	}
	if next != plan || plan.RepairCount() != 1 {
		b.Fatal("fixture drift was not repaired; benchmark would not measure Repair")
	}
	b.Run("repaired", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ComputePlanned(ctx, top, stores[i%2], cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plan.RepairCount()), "repairs")
	})
	b.Run("recall", func(b *testing.B) {
		// A frontier that moves back and forth: each solve recalls the
		// retained plan built for the returning frontier (re-key plus
		// refactorization) instead of rebuilding it.
		top, cfg, base, drifted := frontierMoveFixture(b)
		cfg.NumericalPlanRepair = false
		_, planA, err := core.ComputePlanned(ctx, top, base, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		_, planB, err := core.ComputePlanned(ctx, top, drifted, cfg, planA)
		if err != nil {
			b.Fatal(err)
		}
		stores, plan := []*stream.Window{base, drifted}, planB
		before := planA.RepairCount() + planB.RepairCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, plan, err = core.ComputePlanned(ctx, top, stores[i%2], cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := planA.RepairCount() + planB.RepairCount() - before; got != b.N {
			b.Fatalf("%d of %d iterations were recalls", got, b.N)
		}
	})
	b.Run("cold-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(ctx, top, stores[i%2], cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// frontierMoveFixture builds the Small-sparse streaming state behind
// BenchmarkFrontierMoveRepair: a warm plan over a full window plus a
// drifted twin in which an always-good path that is the sole cover of
// at least one good link turned congested — drift that moves the §5.2
// frontier, which tier-1 Repair must reject and only the tier-2
// numerical patch (core.Plan.RepairNumeric) can absorb warm.
func frontierMoveFixture(b *testing.B) (top *topology.Topology, cfg core.Config, base, drifted *stream.Window) {
	b.Helper()
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Small(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg = core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02, NumericalPlanRepair: true, NumericalRepairMaxFrac: 1}
	const intervals, capacity = 1200, 1000
	rng := rand.New(rand.NewSource(1))
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	mc.PerfectE2E = true
	model, err := netsim.NewModel(top, mc, intervals, rng)
	if err != nil {
		b.Fatal(err)
	}
	stream2 := make([]*bitset.Set, intervals)
	base = stream.NewWindow(top.NumPaths(), capacity)
	for t := 0; t < intervals; t++ {
		stream2[t] = model.Interval(t, rng).CongestedPaths.Clone()
		base.Add(stream2[t])
	}
	// Pick an always-good path that uniquely vouches for some link:
	// congesting it shrinks the good-link set, moving the frontier.
	good := base.AlwaysGoodPaths(cfg.AlwaysGoodTol)
	goodLinks := top.LinksOf(good)
	ctx := context.Background()
	var candidates []int
	good.ForEach(func(p int) bool {
		rest := good.Clone()
		rest.Remove(p)
		if !top.LinksOf(rest).Equal(goodLinks) {
			candidates = append(candidates, p)
		}
		return true
	})
	// Among the frontier-moving candidates, use the first whose drift
	// the numerical repair actually absorbs in both directions (rank
	// loss on this fixture would fall back cold and benchmark nothing).
	for _, drift := range candidates {
		d := stream.NewWindow(top.NumPaths(), capacity)
		for t := 0; t < intervals; t++ {
			s := stream2[t]
			if t%5 == 0 {
				s = s.Clone()
				s.Add(drift)
			}
			d.Add(s)
		}
		_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, next, err := core.ComputePlanned(ctx, top, d, cfg, plan); err != nil || next != plan {
			continue
		}
		if _, next, err := core.ComputePlanned(ctx, top, base, cfg, plan); err != nil || next != plan || plan.NumericRepairCount() != 2 {
			continue
		}
		return top, cfg, base, d
	}
	b.Fatal("no always-good path drifts the frontier numerically repairably; fixture unusable")
	return nil, core.Config{}, nil, nil
}

// BenchmarkFrontierMoveRepair measures an epoch solve across a
// frontier-moving always-good drift with the factorization patched in
// place (tier-2, core.Plan.RepairNumeric) against the cold rebuild the
// same drift forces with the option off. The two windows alternate, so
// every repaired iteration patches across a fresh frontier move —
// links leave and re-enter the potentially-congested set each time.
func BenchmarkFrontierMoveRepair(b *testing.B) {
	top, cfg, base, drifted := frontierMoveFixture(b)
	ctx := context.Background()
	stores := []*stream.Window{base, drifted}
	_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("repaired-numeric", func(b *testing.B) {
		// Align the alternation so iteration 0 (base) is itself a
		// frontier move, whatever state the previous b.N run left.
		if _, _, err := core.ComputePlanned(ctx, top, drifted, cfg, plan); err != nil {
			b.Fatal(err)
		}
		before := plan.NumericRepairCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ComputePlanned(ctx, top, stores[i%2], cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := plan.NumericRepairCount() - before; got != b.N {
			b.Fatalf("%d of %d iterations were tier-2 repairs", got, b.N)
		}
		b.ReportMetric(float64(plan.NumericRepairCount()), "repairs")
	})
	b.Run("cold-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(ctx, top, stores[i%2], cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdPlanBuild measures the full structural phase — subset
// enumeration, seed rows, augmentation, identifiability reduction and
// QR — from scratch at the Small-sparse scale. The sub-benchmark keeps
// the name its BENCH_baseline.json entry and the ALLOC_GATE were
// recorded under.
func BenchmarkColdPlanBuild(b *testing.B) {
	top, cfg, base, _ := planRepairFixture(b)
	ctx := context.Background()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ComputePlanned(ctx, top, base, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEpochSolveBatch measures draining a lag burst of K window
// checkpoints: K sequential warm epoch solves versus one batched
// multi-RHS solve over the same retained factorization (identical
// results; linalg pins the per-vector arithmetic).
func BenchmarkEpochSolveBatch(b *testing.B) {
	top, cfg, base, _ := planRepairFixture(b)
	ctx := context.Background()
	const K = 8
	checkpoints := make([]observe.Store, K)
	for i := range checkpoints {
		checkpoints[i] = base.Clone()
	}
	_, plan, err := core.ComputePlanned(ctx, top, base, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range checkpoints {
				if _, _, err := core.ComputePlanned(ctx, top, w, cfg, plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := core.ComputePlannedBatch(ctx, top, checkpoints, cfg, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQRColumnUpdate measures the incremental QR column updates
// against from-scratch refactorization, the linalg primitives behind
// plan repair's toolkit: AppendCol is bit-identical to the refactor it
// replaces, DeleteCol is the Givens downdate.
func BenchmarkQRColumnUpdate(b *testing.B) {
	const m, n = 300, 100
	rng := rand.New(rand.NewSource(1))
	wide := linalg.NewMatrix(m, n+1)
	for i := range wide.Data {
		if rng.Intn(6) == 0 {
			wide.Data[i] = 1
		}
	}
	narrow := wide.DropCol(n)
	col := wide.Col(n)
	b.Run("append-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := linalg.FactorInPlace(narrow.Clone())
			b.StartTimer()
			f.AppendCol(col)
		}
	})
	b.Run("delete-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := linalg.FactorInPlace(wide.Clone())
			b.StartTimer()
			f.DeleteCol(n / 2)
		}
	})
	b.Run("refactor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.FactorInPlace(wide.Clone())
		}
	})
}

// BenchmarkMetricsObserve pins the telemetry hot path at 0 allocs/op:
// the instrumented ingest/epoch paths observe through pre-resolved
// handles exactly like these, so the bench alloc gate (-allocs-for
// MetricsObserve) guards the whole instrumentation layer.
func BenchmarkMetricsObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench_ops_total", "ops")
	gauge := reg.Gauge("bench_depth", "depth")
	hist := reg.Histogram("bench_latency_seconds", "latency", telemetry.ExpBuckets(1e-6, 4, 12))
	child := reg.CounterVec("bench_labeled_total", "labeled ops", "kind").With("hot")
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gauge.Set(int64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i%1000) * 1e-6)
		}
	})
	b.Run("vec-child", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			child.Inc()
		}
	})
}

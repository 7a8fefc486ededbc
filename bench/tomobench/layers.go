package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
)

// timeUs returns how long fn took, in microseconds.
func timeUs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / 1e3
}

// medianUs runs fn n times and returns the median duration.
func medianUs(n int, fn func()) float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = timeUs(fn)
	}
	return median(vs)
}

// layerPass times the public functions of each layer directly, on the
// run's own inputs, with nothing else running: the per-layer budget
// that the spans of a live run (which include waiting) cannot give.
// Every figure is a median of repeated calls, in microseconds unless
// named _ms.
func layerPass(ld *load, walDir string, r *report) error {
	ctx := context.Background()
	s, top := ld.spec, ld.top
	cfg := core.Config{MaxSubsetSize: 2, AlwaysGoodTol: 0.02}

	// The windows a run walks through: full after the prefill, then
	// advanced one measured batch at a time.
	win := stream.NewWindow(top.NumPaths(), s.window)
	if _, err := win.AddBatch(ld.pathsRange(0, s.window)); err != nil {
		return err
	}
	const steps = 40
	windows := make([]*stream.Window, 0, steps)
	next := s.window
	for i := 0; i < steps; i++ {
		for j := 0; j < s.batch; j++ {
			win.Add(ld.paths(next))
			next++
		}
		windows = append(windows, win.Clone())
	}
	full := windows[len(windows)-1]

	// stream
	pool := ld.pathsRange(s.window, s.window+len(ld.tracePaths))
	r.addLayer("stream.add_us_per_interval", medianUs(5, func() {
		w := full.Clone()
		w.AddBatch(pool) // full window: every add also evicts
	})/float64(len(pool)), "us")
	r.addLayer("stream.clone_us", medianUs(20, func() { full.Clone() }), "us")
	part := topology.NewPartition(top)
	sharded := stream.NewSharded(top.NumPaths(), s.window, part.PathShards(), max(part.NumShards(), 1))
	if _, err := sharded.AddBatch(ld.pathsRange(0, s.window)); err != nil {
		return err
	}
	r.addLayer("stream.sharded_add_us_per_interval", medianUs(5, func() {
		w := sharded.Clone()
		w.AddBatch(pool)
	})/float64(len(pool)), "us")
	r.addLayer("stream.sharded_clone_us", medianUs(20, func() { sharded.Clone() }), "us")

	// core: cold builds at one and two workers, then the warm walk.
	cold := func(conc int, obs observe.Store) float64 {
		c := cfg
		c.Concurrency = conc
		return medianUs(3, func() { core.ComputePlanned(ctx, top, obs, c, nil) }) / 1e3
	}
	c1, c2 := cold(1, full), cold(2, full)
	r.addLayer("core.cold_build_ms.c1", c1, "ms")
	r.addLayer("core.cold_build_ms.c2", c2, "ms")
	r.addLayer("core.cold_build_speedup_c2", c1/max(c2, 1e-9), "ratio")
	sparsePaper := 0.0
	if s.nonStationary { // once per pass, on the workload cold builds matter to
		v, err := sparsePaperColdBuildMs(ctx, cfg)
		if err != nil {
			return err
		}
		sparsePaper = v
	}
	r.addLayer("core.cold_build_ms.sparse_paper", sparsePaper, "ms")

	ws, err := estimator.NewWarmSolver(top, solverOpts()...)
	if err != nil {
		return err
	}
	var warmUs, repairUs, assembleUs []float64
	for _, w := range windows {
		var info estimator.SolveInfo
		total := timeUs(func() { _, info, err = ws.Estimate(ctx, w) })
		if err != nil {
			return fmt.Errorf("layer pass: warm estimate: %w", err)
		}
		inCore := float64(info.BuildTime+info.RepairTime+info.SolveTime) / 1e3
		assembleUs = append(assembleUs, total-inCore)
		switch {
		case info.Repaired:
			repairUs = append(repairUs, float64(info.RepairTime)/1e3)
		case info.Warm:
			warmUs = append(warmUs, float64(info.SolveTime)/1e3)
		}
	}
	r.addLayer("core.warm_solve_us", median(warmUs), "us")
	r.addLayer("core.repair_us", median(repairUs), "us")
	r.addLayer("estimator.assemble_us", median(assembleUs), "us")
	stores := make([]observe.Store, 8)
	for i := range stores {
		stores[i] = windows[len(windows)-8+i]
	}
	r.addLayer("core.batch_solve_us_per_epoch", medianUs(3, func() { ws.EstimateBatch(ctx, stores) })/8, "us")

	// estimator: per-shard solves and the merge.
	sv, err := estimator.NewShardedSolver(top, solverOpts()...)
	if err != nil {
		return err
	}
	blocks := make([]*core.Result, sv.NumShards())
	var shardUs []float64
	for pass := 0; pass < 3; pass++ { // the first pass builds each shard's plan, the rest are warm
		for k := range blocks {
			us := timeUs(func() { blocks[k], _, err = sv.SolveShard(ctx, k, full) })
			if err != nil {
				return fmt.Errorf("layer pass: shard solve: %w", err)
			}
			if pass > 0 {
				shardUs = append(shardUs, us)
			}
		}
	}
	r.addLayer("estimator.shard_solve_us", median(shardUs), "us")
	r.addLayer("estimator.merge_us", medianUs(5, func() { sv.Merge(blocks, full) }), "us")

	// server: one synchronous epoch on an un-started server, and the
	// ingest handler against Server.Ingest.
	newServer := func() (*server.Server, error) {
		srv, err := server.New(top, server.Config{
			WindowSize: s.window, Algo: s.algo, EpochEvery: s.epochEvery,
			SolverOpts: solverOpts(), Logger: quietLogger(),
		})
		if err != nil {
			return nil, err
		}
		if _, err := srv.Ingest(ld.pathsRange(0, s.window)); err != nil {
			return nil, err
		}
		srv.Recompute(ctx)
		return srv, nil
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	var recomputeUs, stageUs []float64
	at := s.window
	for i := 0; i < steps; i++ {
		if _, err := srv.Ingest(ld.pathsRange(at, at+s.batch)); err != nil {
			return err
		}
		var snap *server.Snapshot
		recomputeUs = append(recomputeUs, timeUs(func() { snap = srv.Recompute(ctx) }))
		if snap.Err != nil {
			return fmt.Errorf("layer pass: recompute: %w", snap.Err)
		}
		stageUs = append(stageUs, float64(snap.ComputeTime)/1e3)
		at += s.batch
	}
	srv.Close()
	recompute := median(recomputeUs)
	r.addLayer("server.recompute_us", recompute, "us")
	// Clone, snapshot assembly and publish: what an epoch costs beyond
	// the estimator call the server itself times (Snapshot.ComputeTime).
	r.addLayer("server.epoch_overhead_us", max(recompute-median(stageUs), 0), "us")

	hsrv, err := newServer()
	if err != nil {
		return err
	}
	isrv, err := newServer()
	if err != nil {
		return err
	}
	handler := hsrv.Handler()
	var handlerUs, ingestUs []float64
	for i := 0; i < min(steps, len(ld.bodies)); i++ {
		body := ld.bodies[i]
		req := httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handlerUs = append(handlerUs, timeUs(func() { handler.ServeHTTP(rec, req) }))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("layer pass: ingest handler answered %d", rec.Code)
		}
		batch := ld.pathsRange(s.window+i*s.batch, s.window+(i+1)*s.batch)
		ingestUs = append(ingestUs, timeUs(func() { isrv.Ingest(batch) }))
	}
	hsrv.Close()
	isrv.Close()
	perInterval := median(handlerUs) / float64(s.batch)
	r.addLayer("server.handler_ingest_us_per_interval", perInterval, "us")
	r.addLayer("server.decode_us_per_interval", max(perInterval-median(ingestUs)/float64(s.batch), 0), "us")

	// wal: recovery of the traced run's own directory.
	recoverMs := 0.0
	if walDir != "" {
		recoverMs = timeUs(func() {
			var w *wal.WAL
			if w, err = wal.Open(wal.Options{Dir: walDir, Horizon: s.window}); err != nil {
				return
			}
			err = w.Replay(func(uint64, []*bitset.Set) error { return nil })
			w.Close()
		}) / 1e3
		if err != nil {
			return fmt.Errorf("layer pass: WAL recovery: %w", err)
		}
	}
	r.addLayer("wal.recover_ms", recoverMs, "ms")
	return nil
}

// sparsePaperColdBuildMs times one cold plan build at the paper's
// Sparse scale (1500 paths over ≈2000 links, 1000 intervals): the
// point the §5.3 growth bound O(n1³ + n1²·2^n2·n3) is checked at.
func sparsePaperColdBuildMs(ctx context.Context, cfg core.Config) (float64, error) {
	top, err := experiment.BuildTopology(experiment.Sparse, experiment.Paper(), 1)
	if err != nil {
		return 0, err
	}
	mc := netsim.DefaultConfig(netsim.RandomCongestion)
	model, err := netsim.NewModel(top, mc, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	win := stream.NewWindow(top.NumPaths(), 1000)
	for t := 0; t < 1000; t++ {
		win.Add(model.Interval(t, rng).CongestedPaths)
	}
	ms := timeUs(func() { _, _, err = core.ComputePlanned(ctx, top, win, cfg, nil) }) / 1e3
	return ms, err
}

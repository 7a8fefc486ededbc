package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one workload run.
type report struct {
	workload string
	e2e      []metric // the end-to-end metrics, in BENCHMARK.json order
	layer    []metric // per-layer metrics
	ops      int      // POSTs + queries + output checks attempted
	failed   int
	problems []string // what failed, for the operator
}

func (r *report) addE2E(name string, value float64, unit string) {
	r.e2e = append(r.e2e, metric{name, value, unit})
}

func (r *report) addLayer(name string, value float64, unit string) {
	r.layer = append(r.layer, metric{name, value, unit})
}

func (r *report) get(name string) float64 {
	for _, m := range r.e2e {
		if m.name == name {
			return m.value
		}
	}
	for _, m := range r.layer {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// setupsPerRun is how often a run sets the workload up. setup_s is
// gated on the medians of two sets of runs, and a single set-up of
// 0.2 – 2 s is at the mercy of one stall of the box, so every run sets
// up three times (tearing the first two down again) and reports the
// middle one.
const setupsPerRun = 3

// setupTimes are the phases of one set-up, in seconds.
type setupTimes struct {
	total, topology, stream, ready, prefill float64
}

// rig is a prefilled configuration ready to be measured: the real
// daemons and the harness's two load connections to them.
type rig struct {
	f      *fleet
	wr, rd *httpc
}

func (g *rig) close() {
	g.wr.close()
	g.rd.close()
	g.f.stop()
}

// warmUp connects the writer and the reader to a booted target, waits
// until it is ready and prefills one window. It returns the two
// connections and how long readiness (since booted) and prefill took.
func warmUp(ld *load, public string, booted time.Time) (wr, rd *httpc, readyS, prefillS float64, err error) {
	wr, rd = newHTTPC(public), newHTTPC(public)
	if err = waitReady(rd); err == nil {
		readyS = time.Since(booted).Seconds()
		t := time.Now()
		err = prefill(ld, wr, rd)
		prefillS = time.Since(t).Seconds()
	}
	if err != nil {
		wr.close()
		rd.close()
		return nil, nil, 0, 0, err
	}
	return wr, rd, readyS, prefillS, nil
}

// setup generates the inputs, boots the daemons and prefills one
// window: everything between harness start and the first measured
// send. The caller closes the returned rig.
func setup(e *env, s spec, seed int64, seconds float64) (*load, *rig, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ld, err := generate(s, seed, seconds)
	if err != nil {
		return nil, nil, st, err
	}
	st.topology, st.stream = ld.topologyS, ld.streamS
	booting := time.Now()
	f, err := e.startFleet(ld)
	if err != nil {
		return nil, nil, st, err
	}
	wr, rd, ready, prefillS, err := warmUp(ld, f.public, booting)
	if err != nil {
		logs := f.logs()
		f.stop()
		return nil, nil, st, fmt.Errorf("%w\n%s", err, logs)
	}
	st.ready, st.prefill = ready, prefillS
	st.total = time.Since(t0).Seconds()
	return ld, &rig{f, wr, rd}, st, nil
}

// runWorkload is one untraced run: setupsPerRun full set-ups (all but
// the last torn down again), one measured window against real tomod
// children, and the output check.
func runWorkload(e *env, s spec, seed int64, seconds float64) (*report, error) {
	var (
		ld    *load
		g     *rig
		times []setupTimes
	)
	for i := 0; i < setupsPerRun; i++ {
		if g != nil {
			g.close()
		}
		var st setupTimes
		var err error
		if ld, g, st, err = setup(e, s, seed, seconds); err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", s.name, i+1, err)
		}
		times = append(times, st)
	}
	defer g.close()
	f, wr, rd := g.f, g.wr, g.rd

	tg := target{public: f.public, pids: f.pids()}
	if s.cluster {
		for _, p := range f.procs[:len(f.procs)-1] {
			tg.workers = append(tg.workers, "http://"+p.addr)
		}
	}
	w, err := measure(ld, tg, wr, rd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", s.name, err, f.logs())
	}
	checks, problems, err := verify(ld, rd, len(ld.due))
	if err != nil {
		return nil, fmt.Errorf("%s: output check: %w\n%s", s.name, err, f.logs())
	}

	r := &report{workload: s.name}
	r.ops = w.batches + w.probes + checks
	r.failed = w.failed + len(problems)
	if w.firstErr != "" {
		r.problems = append(r.problems, w.firstErr)
	}
	r.problems = append(r.problems, problems...)
	if dropped := w.after.status.CheckpointsDropped; dropped != 0 {
		// Not a failed operation: the estimates stay correct, and on this
		// box a single 100 ms stall of the solver (8 checkpoints at 80/s)
		// is enough. It does mean the run's epoch count is short.
		fmt.Fprintf(os.Stderr, "tomobench: %s: warning: %d stride checkpoints dropped (a stall outran the epoch backlog); see server.checkpoints_dropped\n", s.name, dropped)
	}
	if logs := strings.TrimSpace(f.logs()); logs != "" && r.failed > 0 {
		r.problems = append(r.problems, logs)
	}

	sort.Slice(times, func(i, j int) bool { return times[i].total < times[j].total })
	st := times[len(times)/2]
	r.addE2E("setup_s", st.total, "s")
	r.addE2E("freshness_ms_p50", percentile(w.freshMs, 50), "ms")
	r.addE2E("freshness_ms_p90", percentile(w.freshMs, 90), "ms")
	r.addE2E("ingest_ms_p50", percentile(w.ingestMs, 50), "ms")
	r.addE2E("cpu_ms_per_interval", (w.cpuUserS+w.cpuSysS)*1000/float64(max(w.accepted, 1)), "ms")
	r.addE2E("rss_mb", median(w.rssMiB), "MiB")
	r.addE2E("link_abs_err_mean", ld.servedAbsErr(w.answers), "prob")

	liveLayerMetrics(r, w)
	r.addLayer("setup.topology_s", st.topology, "s")
	r.addLayer("setup.stream_gen_s", st.stream, "s")
	r.addLayer("setup.ready_s", st.ready, "s")
	r.addLayer("setup.prefill_s", st.prefill, "s")
	return r, nil
}

// liveLayerMetrics derives the per-layer metrics that come from the
// untraced run: deltas of the daemons' own /metrics and /v1/status
// across the measured window, the harness's client-side timings, and
// /proc accounting.
func liveLayerMetrics(r *report, w *window) {
	d := w.after.public.delta(w.before.public)
	sa, sb := w.after.status, w.before.status
	batches := float64(max(w.batches, 1))
	intervals := float64(max(w.accepted, 1))

	ta, tb := sa.SolveTiers, sb.SolveTiers
	cold, warm := float64(ta.Cold-tb.Cold), float64(ta.Warm-tb.Warm)
	repaired, numeric := float64(ta.Repaired-tb.Repaired), float64(ta.RepairedNumeric-tb.RepairedNumeric)
	solves := cold + warm + repaired + numeric
	epochs := float64(sa.Epoch - sb.Epoch)

	// server
	r.addLayer("server.epochs", epochs, "count")
	r.addLayer("server.epochs_per_batch", epochs/batches, "ratio")
	r.addLayer("server.checkpoints_dropped", float64(sa.CheckpointsDropped), "count")
	r.addLayer("server.lag_intervals_end", float64(sa.LagIntervals), "count")
	r.addLayer("server.ingest_rejected", d.sum("tomod_ingest_rejected_total"), "count")
	r.addLayer("server.http.ingest_busy_ms", d.histMeanMs("tomod_http_request_duration_seconds", `route="POST /v1/observations"`), "ms")
	r.addLayer("server.http.query_busy_ms", d.histMeanMs("tomod_http_request_duration_seconds", `route="GET /v1/links/{id}"`), "ms")
	perEpoch := func(stage string) float64 {
		if solves == 0 {
			return 0
		}
		return d.sum("tomod_epoch_compute_seconds_sum", `stage="`+stage+`"`) / solves * 1000
	}
	r.addLayer("server.epoch_ms.rebuild", perEpoch("rebuild"), "ms")
	r.addLayer("server.epoch_ms.repair", perEpoch("repair"), "ms")
	r.addLayer("server.epoch_ms.solve", perEpoch("solve"), "ms")
	r.addLayer("server.query_ms_p50", percentile(w.queryMs, 50), "ms")
	r.addLayer("server.query_ms_p99", percentile(w.queryMs, 99), "ms")
	r.addLayer("server.subsets_ms_p50", percentile(w.subsetMs, 50), "ms")

	// wal
	appends := d.sum("tomod_wal_appends_total")
	r.addLayer("wal.appends", appends, "count")
	r.addLayer("wal.bytes_per_interval", d.sum("tomod_wal_bytes_written_total")/intervals, "B")
	r.addLayer("wal.fsyncs", d.sum("tomod_wal_fsync_duration_seconds_count"), "count")
	r.addLayer("wal.fsync_ms_mean", d.histMeanMs("tomod_wal_fsync_duration_seconds"), "ms")
	r.addLayer("wal.rotations", d.sum("tomod_wal_segment_rotations_total"), "count")

	// stream: once the window is full every added interval evicts one.
	r.addLayer("stream.evictions", float64(sa.IngestedSeq-sb.IngestedSeq), "count")

	// core
	r.addLayer("core.tier.cold", cold, "count")
	r.addLayer("core.tier.warm", warm, "count")
	r.addLayer("core.tier.repaired", repaired, "count")
	r.addLayer("core.tier.repaired_numeric", numeric, "count")
	r.addLayer("core.tier.repair_failed", float64(ta.RepairFailed-tb.RepairFailed), "count")
	coldFrac := 0.0
	if solves > 0 {
		coldFrac = cold / solves
	}
	r.addLayer("core.cold_frac", coldFrac, "ratio")
	r.addLayer("core.rank", float64(sa.Rank), "count")
	r.addLayer("core.subsets", float64(sa.Subsets), "count")

	// cluster
	r.addLayer("cluster.rpc_ms_mean.ingest", d.histMeanMs("tomod_cluster_rpc_duration_seconds", `rpc="ingest"`), "ms")
	r.addLayer("cluster.rpc_ms_mean.result", d.histMeanMs("tomod_cluster_rpc_duration_seconds", `rpc="result"`), "ms")
	r.addLayer("cluster.fanout_ms_mean", d.histMeanMs("tomod_cluster_fanout_seconds"), "ms")
	r.addLayer("cluster.rpc_errors", d.sum("tomod_cluster_rpc_errors_total"), "count")
	workerSolves := 0.0
	for i, ws := range w.after.workers {
		workerSolves += ws.delta(w.before.workers[i]).sum("tomod_cluster_worker_solves_total")
	}
	r.addLayer("cluster.worker_solves", workerSolves, "count")
	coordShare, workerShare := 0.0, 0.0
	if total := w.cpuUserS + w.cpuSysS; total > 0 && len(w.cpuByProc) > 1 {
		coordShare = w.cpuByProc[len(w.cpuByProc)-1] / total
		workerShare = 1 - coordShare
	}
	r.addLayer("cluster.cpu_share.coordinator", coordShare, "ratio")
	r.addLayer("cluster.cpu_share.workers", workerShare, "ratio")

	// process and load generator
	r.addLayer("proc.cpu_user_s", w.cpuUserS, "s")
	r.addLayer("proc.cpu_sys_s", w.cpuSysS, "s")
	r.addLayer("proc.peak_rss_mb", w.peakMiB, "MiB")
	r.addLayer("gen.late_ms_p50", percentile(w.lateMs, 50), "ms")
	r.addLayer("gen.late_ms_p99", percentile(w.lateMs, 99), "ms")
	r.addLayer("gen.batches", float64(w.batches), "count")
	r.addLayer("gen.unresolved", float64(w.unresolved), "count")
	r.addLayer("gen.window_s", w.elapsedS, "s")
	// Reported, never gated: one stall of the box moves them.
	r.addLayer("freshness_ms_p99", percentile(w.freshMs, 99), "ms")
	r.addLayer("freshness_ms_mean", mean(w.freshMs), "ms")
	r.addLayer("ingest_ms_p99", percentile(w.ingestMs, 99), "ms")
}

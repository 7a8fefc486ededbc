package server

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/estimator"
	"repro/internal/telemetry"
)

// The server's operational metrics, registered once against the
// process-wide telemetry registry (package-level so the epoch solver
// loop and the ingest path observe through pre-resolved handles —
// never a Vec.With lookup — keeping those hot paths at 0 allocs/op).
// Naming follows Prometheus conventions: tomod_ prefix, _total for
// counters, base-unit suffixes (_seconds), constant-cardinality labels
// only (route, code, stage, path, shard, reason).
var (
	metricIngestBatches = telemetry.Default().Counter("tomod_ingest_batches_total",
		"Ingest batches committed to the window (one POST /v1/observations may split at checkpoint strides; this counts caller batches).")
	metricIngestIntervals = telemetry.Default().Counter("tomod_ingest_intervals_total",
		"Intervals committed to the sliding window.")
	metricIngestRejected = telemetry.Default().CounterVec("tomod_ingest_rejected_total",
		"Rejected ingest requests by reason.", "reason")
	rejBadRequest = metricIngestRejected.With("bad_request")
	rejBadPath    = metricIngestRejected.With("bad_path")
	rejTooLarge   = metricIngestRejected.With("payload_too_large")
	rejWAL        = metricIngestRejected.With("wal_unavailable")
	rejShard      = metricIngestRejected.With("shard_unavailable")

	metricHTTPRequests = telemetry.Default().CounterVec("tomod_http_requests_total",
		"HTTP requests served, by route pattern and response code.", "route", "code")
	metricHTTPInFlight = telemetry.Default().Gauge("tomod_http_in_flight_requests",
		"HTTP requests currently being served.")
	metricHTTPDuration = telemetry.Default().HistogramVec("tomod_http_request_duration_seconds",
		"HTTP request latency by route pattern.", telemetry.ExpBuckets(1e-4, 4, 10), "route")

	metricEpochSolves = telemetry.Default().CounterVec("tomod_epoch_solves_total",
		"Published epoch solves by plan path: cold (structural rebuild), warm (carried-forward plan), repaired (warm after the tier-1 re-key of the current plan, or the recall of a retained plan built for the same good-link frontier), repaired_numeric (warm after the tier-2 Plan.RepairNumeric factorization patch).", "path")
	solvesCold            = metricEpochSolves.With("cold")
	solvesWarm            = metricEpochSolves.With("warm")
	solvesRepaired        = metricEpochSolves.With("repaired")
	solvesRepairedNumeric = metricEpochSolves.With("repaired_numeric")

	metricRepairFailed = telemetry.Default().Counter("tomod_plan_repair_failed_total",
		"Cold epoch solves that first attempted a plan repair and failed — the drift was unrepairable — as opposed to cold solves forced by a config or topology change.")

	// Stage buckets span ~1µs (a Plan.Repair re-key) to ~4s (a large
	// cold rebuild): repair lives in the first buckets, warm solve
	// tails mid-range, cold rebuilds at the top.
	metricStageSeconds = telemetry.Default().HistogramVec("tomod_epoch_compute_seconds",
		"Epoch solve wall time by stage: rebuild (cold structural phase), repair (Plan.Repair re-key), solve (shared solve tail).",
		telemetry.ExpBuckets(1e-6, 4, 12), "stage")
	stageRebuild = metricStageSeconds.With("rebuild")
	stageRepair  = metricStageSeconds.With("repair")
	stageSolve   = metricStageSeconds.With("solve")

	metricEpochLag = telemetry.Default().Gauge("tomod_epoch_lag_intervals",
		"Intervals ingested past the latest published snapshot's SeqHigh (staleness of the served estimate).")
	metricShardLag = telemetry.Default().GaugeVec("tomod_shard_lag_intervals",
		"Per-shard intervals ingested past the shard's last solved SeqHigh (sharded mode).", "shard")
	metricBacklog = telemetry.Default().Gauge("tomod_epoch_backlog",
		"Interval-stride checkpoints queued for the solver (Config.EpochEvery).")
	metricCheckpointsDropped = telemetry.Default().Counter("tomod_epoch_checkpoints_dropped_total",
		"Queued checkpoints discarded past MaxEpochBacklog or after a failed drain.")
	metricSolverPanics = telemetry.Default().Counter("tomod_solver_panics_total",
		"Solver panics contained by the supervision guards (each also sets degraded_reason).")
)

// processStart anchors tomod_uptime_seconds and /v1/status uptime.
var processStart = time.Now()

func init() {
	goVersion, revision := BuildInfo()
	telemetry.Default().GaugeVec("tomod_build_info",
		"Build metadata; always 1. Labels carry the Go version and VCS revision.",
		"goversion", "revision").With(goVersion, revision).Set(1)
	telemetry.Default().GaugeFunc("tomod_uptime_seconds",
		"Seconds since process start.",
		func() float64 { return time.Since(processStart).Seconds() })
	telemetry.Default().GaugeFunc("tomod_gomaxprocs",
		"Value of GOMAXPROCS.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
}

// BuildInfo returns the running binary's Go version and VCS revision
// ("unknown" when the build carries no VCS stamp, e.g. `go test`
// binaries); /v1/status and tomod_build_info report it.
func BuildInfo() (goVersion, revision string) {
	goVersion = runtime.Version()
	revision = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	return goVersion, revision
}

// Uptime returns how long the process has been up.
func Uptime() time.Duration { return time.Since(processStart) }

// observeSolve records one published epoch's plan path — on the
// process-wide counters and on the server's own /v1/status counts —
// and its per-stage wall time. Stage times of zero are skipped rather
// than observed: a warm epoch has no rebuild and an unrepaired one no
// repair.
func (s *Server) observeSolve(info estimator.SolveInfo) {
	own, metric := &s.tiers.cold, solvesCold
	switch {
	case info.RepairedNumeric:
		own, metric = &s.tiers.repairedNumeric, solvesRepairedNumeric
	case info.Repaired:
		own, metric = &s.tiers.repaired, solvesRepaired
	case info.Warm:
		own, metric = &s.tiers.warm, solvesWarm
	}
	own.Add(1)
	metric.Inc()
	if info.RepairFailed {
		s.tiers.repairFailed.Add(1)
		metricRepairFailed.Inc()
	}
	if info.BuildTime > 0 {
		stageRebuild.Observe(info.BuildTime.Seconds())
	}
	if info.RepairTime > 0 {
		stageRepair.Observe(info.RepairTime.Seconds())
	}
	if info.SolveTime > 0 {
		stageSolve.Observe(info.SolveTime.Seconds())
	}
}

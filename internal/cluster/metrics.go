package cluster

import "repro/internal/telemetry"

// Cluster metrics, registered once against the process-wide telemetry
// registry. Coordinator and worker roles never share a process, so the
// two halves below are disjoint in any real scrape; both follow the
// repo's conventions (tomod_ prefix, _total counters, _seconds
// histograms, constant-cardinality labels).
var (
	// Coordinator side.
	metricRPCDuration = telemetry.Default().HistogramVec("tomod_cluster_rpc_duration_seconds",
		"Coordinator→worker RPC latency by worker and RPC name (successful attempts).",
		telemetry.ExpBuckets(1e-4, 4, 10), "worker", "rpc")
	metricRPCErrors = telemetry.Default().CounterVec("tomod_cluster_rpc_errors_total",
		"Failed coordinator→worker RPC attempts by worker and RPC name (transport and application errors).",
		"worker", "rpc")
	metricFanout = telemetry.Default().Histogram("tomod_cluster_fanout_seconds",
		"Wall time to fan one ingest batch out to every worker (slowest worker dominates).",
		telemetry.ExpBuckets(1e-4, 4, 10))
	metricShardsAssigned = telemetry.Default().GaugeVec("tomod_cluster_shards_assigned",
		"Partition shards placed on each worker.", "worker")
	metricShardsUnreachable = telemetry.Default().Gauge("tomod_cluster_shards_unreachable",
		"Shards whose owning worker is currently not healthy (drives degraded mode).")
	metricWorkersHealthy = telemetry.Default().Gauge("tomod_cluster_workers_healthy",
		"Workers currently in the healthy state.")
	metricCatchupIntervals = telemetry.Default().Counter("tomod_cluster_catchup_intervals_total",
		"Intervals replayed to rejoining workers from the coordinator's retained window.")

	// Worker side.
	metricWorkerShards = telemetry.Default().Gauge("tomod_cluster_worker_shards",
		"Shards assigned to this worker.")
	metricWorkerSolves = telemetry.Default().Counter("tomod_cluster_worker_solves_total",
		"Per-shard block solves executed by this worker (cache hits at an unchanged sequence excluded).")
	metricWorkerIngested = telemetry.Default().Counter("tomod_cluster_worker_ingest_intervals_total",
		"Interval rows applied to this worker's window (once per row, however many shards the worker owns).")
)

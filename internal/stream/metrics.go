package stream

import "repro/internal/telemetry"

// metricEvictions counts intervals aged out of the live windows in the
// process — one per interval per window: the daemon keeps a single
// window whatever its shard count, a cluster worker one replica per
// assigned shard (WAL replay counts alike; frozen clones never evict).
// A single atomic increment on the eviction path keeps the steady-state
// Add at 0 allocs/op, which the bench alloc gate enforces end to end
// through this counter.
var metricEvictions = telemetry.Default().Counter("tomod_window_evictions_total",
	"Intervals evicted from the sliding window (oldest-out at capacity).")

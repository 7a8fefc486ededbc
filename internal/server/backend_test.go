package server

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/estimator"
)

// noFleet is the background half of a test Cluster: no health loops to
// start or stop and no workers to report.
type noFleet struct{}

func (noFleet) Start(*Server)                 {}
func (noFleet) Close()                        {}
func (noFleet) ClusterStatus() *ClusterStatus { return nil }

// noBatchBackend is a sharded backend without the batched drain seam,
// forwarding batches nowhere — the shape of the cluster coordinator.
type noBatchBackend struct {
	ShardBackend
	noFleet
}

func (noBatchBackend) Forward(uint64, []*bitset.Set) error { return nil }

// Interval-stride epochs drain through ShardBatchSolver, which a
// Cluster lacks, so New rejects EpochEvery with one instead of serving
// drained epochs whose results are unspecified; without EpochEvery it
// is fine.
func TestEpochEveryRequiresBatchSolver(t *testing.T) {
	top := shardedTestTopology(t)
	sv, err := estimator.NewShardedSolver(top, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Algo:       estimator.CorrelationCompleteSharded,
		SolverOpts: solverOpts(),
		Backend:    noBatchBackend{ShardBackend: &localBackend{sv: sv}},
		EpochEvery: 10,
	}
	if s, err := New(top, cfg); err == nil {
		s.Close()
		t.Fatal("New accepted EpochEvery with a backend lacking ShardBatchSolver")
	}
	cfg.EpochEvery = 0
	s, err := New(top, cfg)
	if err != nil {
		t.Fatalf("New without EpochEvery: %v", err)
	}
	s.Close()
}

// New refuses a window above MaxWindowSize rather than size a ring by
// it.
func TestNewRefusesWindowAboveCeiling(t *testing.T) {
	if s, err := New(testTopology(t), Config{WindowSize: MaxWindowSize + 1}); err == nil {
		s.Close()
		t.Fatal("New accepted a window above MaxWindowSize")
	}
}

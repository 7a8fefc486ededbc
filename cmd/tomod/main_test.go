package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestFlagSurface pins every flag name and default against
// testdata/flags.golden, so an added, removed or re-defaulted knob is
// a visible diff in review.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("tomod", flag.ContinueOnError)
	new(options).register(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&got, "-%s=%s\n", f.Name, f.DefValue)
	})
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed; if intended, update testdata/flags.golden and MIGRATION.md.\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestConfigureMapsFlags pins the flag → configuration mapping of every
// role: window, recompute, algorithm (the coordinator's forced sharded
// one included), epoch stride, solver settings and the WAL options,
// which reach workers too.
func TestConfigureMapsFlags(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	walFlags := []string{"-wal-dir", "d", "-wal-fsync", "batch", "-wal-fsync-every", "50ms", "-wal-segment-bytes", "4096"}
	wantWAL := wal.Options{Dir: "d", Policy: wal.SyncPerBatch, SyncEvery: 50 * time.Millisecond, SegmentBytes: 4096}
	solverFlags := []string{"-maxsubset", "3", "-tol", "0.05", "-numerical-plan-repair"}
	tuned, err := estimator.Apply(
		estimator.WithMaxSubsetSize(3), estimator.WithAlwaysGoodTol(0.05), estimator.WithNumericalPlanRepair(true))
	if err != nil {
		t.Fatal(err)
	}
	defaults, err := estimator.Apply(estimator.WithMaxSubsetSize(2), estimator.WithAlwaysGoodTol(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		args       []string
		wantErr    bool
		algo       string // "" for a worker
		window     int
		recompute  time.Duration
		epochEvery int
		settings   estimator.Settings
		wal        wal.Options
	}{
		{name: "standalone defaults", algo: estimator.CorrelationComplete, window: 1000, recompute: 2 * time.Second, settings: defaults},
		{
			name: "standalone",
			args: append(append([]string{"-window", "500", "-recompute", "3s", "-algo", "independence", "-epoch-every", "50"},
				solverFlags...), walFlags...),
			algo: "independence", window: 500, recompute: 3 * time.Second, epochEvery: 50, settings: tuned, wal: wantWAL,
		},
		{
			name: "coordinator",
			args: append(append([]string{"-role", "coordinator", "-peers", "http://a, http://b", "-window", "300"},
				solverFlags...), walFlags...),
			algo: estimator.CorrelationCompleteSharded, window: 300, recompute: 2 * time.Second, settings: tuned, wal: wantWAL,
		},
		{name: "coordinator with a conflicting algo", args: []string{"-role", "coordinator", "-peers", "http://a", "-algo", "independence"}, wantErr: true},
		{name: "coordinator without peers", args: []string{"-role", "coordinator"}, wantErr: true},
		{name: "window above the ceiling", args: []string{"-window", strconv.Itoa(server.MaxWindowSize + 1)}, wantErr: true},
		{name: "worker", args: append([]string{"-role", "worker", "-worker-id", "w3"}, walFlags...), wal: wantWAL},
		{name: "worker with a bad fsync policy", args: []string{"-role", "worker", "-wal-dir", "d", "-wal-fsync", "never"}, wantErr: true},
		{name: "unknown role", args: []string{"-role", "leader"}, wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("tomod", flag.ContinueOnError)
			var o options
			o.register(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			rc, err := o.configure(fs, nil, logger)
			if c.wantErr {
				if err == nil {
					t.Fatalf("configure(%v) succeeded, want an error", c.args)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.algo == "" {
				if rc.worker == nil || rc.coord != nil {
					t.Fatalf("worker role configured %+v", rc)
				}
				if rc.worker.ID != "w3" || rc.worker.WAL != c.wal {
					t.Fatalf("worker config ID %q WAL %+v, want w3 / %+v", rc.worker.ID, rc.worker.WAL, c.wal)
				}
				return
			}
			if rc.worker != nil {
				t.Fatal("server role configured a worker")
			}
			cfg := rc.server
			if cfg.Algo != c.algo || cfg.WindowSize != c.window || cfg.RecomputeEvery != c.recompute || cfg.EpochEvery != c.epochEvery {
				t.Fatalf("server config algo %q window %d recompute %v epoch-every %d, want %q %d %v %d",
					cfg.Algo, cfg.WindowSize, cfg.RecomputeEvery, cfg.EpochEvery, c.algo, c.window, c.recompute, c.epochEvery)
			}
			if cfg.WAL != c.wal {
				t.Fatalf("server WAL %+v, want %+v", cfg.WAL, c.wal)
			}
			if settings, err := estimator.Apply(cfg.SolverOpts...); err != nil || settings != c.settings {
				t.Fatalf("solver settings %+v (%v), want %+v", settings, err, c.settings)
			}
			if (rc.coord != nil) != (c.algo == estimator.CorrelationCompleteSharded) {
				t.Fatalf("coordinator config %+v for algo %q", rc.coord, c.algo)
			}
			if rc.coord != nil {
				coordSettings, err := estimator.Apply(rc.coord.SolverOpts...)
				if err != nil {
					t.Fatal(err)
				}
				if rc.coord.WindowSize != c.window || coordSettings != c.settings || len(rc.coord.Workers) != 2 ||
					rc.coord.Workers[1].Addr != "http://b" {
					t.Fatalf("coordinator config %+v (settings %+v)", rc.coord, coordSettings)
				}
			}
		})
	}
}

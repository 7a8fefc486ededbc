// Command tomod is the streaming tomography daemon: it ingests
// per-interval path observations over HTTP, continuously recomputes the
// configured estimator's result over a sliding window, and answers
// link-probability, subset-probability and congested-path queries from
// the latest solver epoch.
//
// Serve mode (default):
//
//	tomod -topology topo.json -listen :9900 -window 1000 -recompute 2s \
//	      -algo correlation-complete
//
// The topology JSON is the format written by cmd/topogen and
// topology.WriteJSON; alternatively -gen brite|sparse generates one on
// startup (useful for demos and load tests).
//
// With -algo correlation-complete-sharded the daemon shards by
// correlation-set partition: each epoch solves every shard's block —
// the shard's columns of the one frozen window — in turn
// (warm-starting the null space and factorization while the shard's
// always-good set is stable), and queries are answered from the merged
// snapshot. /v1/status then carries a per-shard
// "shards" array (epoch, seq_high, lag_intervals, warm,
// last_compute_ms).
//
// API (every response in a versioned envelope with machine-readable
// error codes; the estimate-backed endpoints — links and subsets —
// accept ?algo= to select any registered estimator per request):
//
//	POST /v1/observations      {"intervals":[{"congested_paths":[3,17]},...]}
//	GET  /v1/links/{id}        best estimate of P(link congested), with epoch
//	GET  /v1/subsets           correlation-subset good probabilities
//	GET  /v1/subsets/{id}      one subset, with joint congestion probability
//	GET  /v1/estimators        the estimator registry
//	GET  /v1/paths/congested   paths above ?min= congested fraction (observation-level)
//	GET  /v1/status            window fill, epoch, solver lag and stats (+ per-shard, WAL, degraded state)
//	GET  /v1/healthz           liveness probe
//	GET  /v1/readyz            readiness probe (503 with a reason until the first epoch or while degraded)
//	GET  /metrics              Prometheus text exposition (HTTP, ingest, WAL, solver)
//
// Logs are structured (log/slog): -log-format text|json and
// -log-level debug|info|warn|error. SIGHUP logs a snapshot of the
// metric totals. -pprof mounts net/http/pprof on the main listener;
// -debug-addr starts a separate debug listener carrying pprof and
// /metrics (useful to keep profiling off the public port).
//
// With -wal-dir every acknowledged observation batch is appended to a
// checksummed write-ahead log before it is applied; on restart the
// daemon recovers the sliding window from the log (truncating a torn
// tail left by a crash mid-write) and resumes ingest at the recovered
// sequence. -wal-fsync trades durability for latency: batch (sync
// every ack), interval (background sync, default), off.
//
// Cluster mode splits the sharded daemon across processes along the
// correlation-set partition seam. Workers own disjoint shard sets —
// one window masked to their shards' paths, one WAL at the root of
// -wal-dir (under the same -wal-fsync, -wal-fsync-every and
// -wal-segment-bytes as any role), warm plans per shard — and serve the
// internal /c1/* API; the coordinator owns the public /v1/* surface,
// fans ingest out to the fleet, and merges per-shard blocks —
// bit-identical to a single sharded process over the same intervals:
//
//	tomod -role worker -topology topo.json -listen :9101 -wal-dir w0-wal
//	tomod -role worker -topology topo.json -listen :9102 -wal-dir w1-wal
//	tomod -role coordinator -topology topo.json -listen :9900 \
//	      -peers http://127.0.0.1:9101,http://127.0.0.1:9102
//
// Shard k lives on peer k mod N (peer order is the placement, so keep
// -peers stable across coordinator restarts). While any worker is
// unreachable, ingest answers 503 shard_unavailable and queries serve
// the last merged snapshot; a restarted worker replays its WAL and the
// coordinator streams it the missed suffix before ingest resumes. /v1/status carries the per-worker placement and health.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimator"
	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wal"
)

// options is the daemon's whole flag surface; TestFlagSurface pins the
// names and defaults.
type options struct {
	topoPath, gen, scaleName string
	genSeed                  int64

	listen, role, peers, workerID string
	window                        int
	recompute                     time.Duration
	algo                          string
	maxSubset                     int
	tol                           float64
	numRepair                     bool
	epochEvery                    int

	walDir, walFsync string
	walEvery         time.Duration
	walSegBytes      int64

	timeouts httpTimeouts

	logFormat, logLevel string
	pprofOn             bool
	debugAddr           string
}

// register declares every flag on fs, bound to o.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.topoPath, "topology", "", "topology JSON file (cmd/topogen format)")
	fs.StringVar(&o.gen, "gen", "", "generate a topology instead: brite or sparse")
	fs.StringVar(&o.scaleName, "scale", "small", "generated-topology scale: small, medium, or paper")
	fs.Int64Var(&o.genSeed, "genseed", 1, "generated-topology seed")

	fs.StringVar(&o.listen, "listen", ":9900", "HTTP listen address")
	fs.StringVar(&o.role, "role", "standalone", "process role: standalone, coordinator, or worker")
	fs.StringVar(&o.peers, "peers", "", "coordinator: comma-separated worker base URLs; shard k lives on peer k mod N")
	fs.StringVar(&o.workerID, "worker-id", "", "worker: placement identity to enforce (empty = adopt the coordinator's)")
	fs.IntVar(&o.window, "window", 1000, fmt.Sprintf("sliding-window capacity in intervals (at most %d)", server.MaxWindowSize))
	fs.DurationVar(&o.recompute, "recompute", 2*time.Second, "minimum spacing between a solver loop's epochs: the loop's tick; a coordinator's loops start an epoch once a batch has been applied, at most this often")
	fs.StringVar(&o.algo, "algo", estimator.CorrelationComplete, "epoch estimator (see /v1/estimators)")
	fs.IntVar(&o.maxSubset, "maxsubset", 2, "Correlation-complete max subset size")
	fs.Float64Var(&o.tol, "tol", 0.02, "always-good congested-fraction tolerance")
	fs.BoolVar(&o.numRepair, "numerical-plan-repair", false, "enable tier-2 numerical plan repair across good-link frontier moves (numerically, not bitwise, equivalent to a rebuild)")
	fs.IntVar(&o.epochEvery, "epoch-every", 0, "also publish one epoch per N ingested intervals (0 = time-based only)")

	fs.StringVar(&o.walDir, "wal-dir", "", "write-ahead log directory for durable ingest (empty = no durability)")
	fs.StringVar(&o.walFsync, "wal-fsync", "interval", "WAL fsync policy: batch, interval, or off")
	fs.DurationVar(&o.walEvery, "wal-fsync-every", 100*time.Millisecond, "background fsync cadence with -wal-fsync=interval")
	fs.Int64Var(&o.walSegBytes, "wal-segment-bytes", 8<<20, "WAL segment rotation size")

	fs.DurationVar(&o.timeouts.readHeader, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	fs.DurationVar(&o.timeouts.read, "read-timeout", time.Minute, "http.Server ReadTimeout (whole request, incl. body)")
	fs.DurationVar(&o.timeouts.idle, "idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")

	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the main listener")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address for pprof and /metrics (implies profiling regardless of -pprof)")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	logger, err := buildLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tomod: %v\n", err)
		os.Exit(1)
	}
	// Process-wide default: the server package logs through its
	// Config.Logger, but stray library logs should match too.
	slog.SetDefault(logger)

	top, err := loadTopology(o.topoPath, o.gen, o.scaleName, o.genSeed)
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("topology loaded",
		"links", top.NumLinks(), "paths", top.NumPaths(), "corr_sets", len(top.CorrSets))

	rc, err := o.configure(flag.CommandLine, top, logger)
	if err != nil {
		fatal(logger, err)
	}
	listeners := serveOpts{
		listen:    o.listen,
		debugAddr: o.debugAddr,
		pprof:     o.pprofOn,
		timeouts:  o.timeouts,
	}
	if rc.worker != nil {
		wk := cluster.NewWorker(*rc.worker)
		defer wk.Close()
		logger.Info("starting worker",
			"listen", o.listen, "worker_id", o.workerID, "wal_dir", o.walDir, "wal_fsync", o.walFsync)
		if err := runHTTP(logger, wk.Handler(), listeners); err != nil {
			fatal(logger, err)
		}
		return
	}
	cfg := rc.server
	if rc.coord != nil {
		coord, err := cluster.NewCoordinator(*rc.coord)
		if err != nil {
			fatal(logger, err)
		}
		cfg.Backend = coord
	}
	// One startup line with the effective configuration, so a log scrape
	// answers "what was this instance actually running with".
	goVersion, revision := server.BuildInfo()
	logger.Info("starting",
		"listen", o.listen,
		"role", o.role,
		"peers", o.peers,
		"debug_addr", o.debugAddr,
		"pprof", o.pprofOn || o.debugAddr != "",
		"algo", cfg.Algo,
		"window", cfg.WindowSize,
		"recompute", cfg.RecomputeEvery.String(),
		"epoch_every", cfg.EpochEvery,
		"max_subset", o.maxSubset,
		"tol", o.tol,
		"wal_dir", o.walDir,
		"wal_fsync", o.walFsync,
		"log_format", o.logFormat,
		"log_level", o.logLevel,
		"go_version", goVersion,
		"revision", revision,
	)
	if err := serve(logger, top, cfg, listeners); err != nil {
		fatal(logger, err)
	}
}

// roleConfig is what the flags configure for one process: the worker's
// config under -role worker; otherwise the server's and, under -role
// coordinator, the coordinator backend's (installed as the server's
// Backend once built).
type roleConfig struct {
	worker *cluster.WorkerConfig
	server server.Config
	coord  *cluster.CoordinatorConfig
}

// configure maps the flags parsed on fs (bound to o) to the role's
// configuration.
func (o *options) configure(fs *flag.FlagSet, top *topology.Topology, logger *slog.Logger) (roleConfig, error) {
	walOpts, err := o.walOptions()
	if err != nil {
		return roleConfig{}, err
	}
	switch o.role {
	case "worker":
		return roleConfig{worker: &cluster.WorkerConfig{
			ID:       o.workerID,
			Topology: top,
			WAL:      walOpts,
			Logger:   logger,
		}}, nil
	case "standalone", "coordinator":
	default:
		return roleConfig{}, fmt.Errorf("unknown -role %q (want standalone, coordinator, or worker)", o.role)
	}
	if o.window > server.MaxWindowSize {
		return roleConfig{}, fmt.Errorf("-window %d exceeds the maximum %d", o.window, server.MaxWindowSize)
	}
	rc := roleConfig{server: server.Config{
		WindowSize:     o.window,
		RecomputeEvery: o.recompute,
		Algo:           o.algo,
		EpochEvery:     o.epochEvery,
		Logger:         logger,
		SolverOpts: []estimator.Option{
			estimator.WithMaxSubsetSize(o.maxSubset),
			estimator.WithAlwaysGoodTol(o.tol),
			estimator.WithNumericalPlanRepair(o.numRepair),
		},
		WAL: walOpts,
	}}
	if o.role == "coordinator" {
		specs, err := parsePeers(o.peers)
		if err != nil {
			return roleConfig{}, err
		}
		// Cluster scatter-gather exists only along the partition seam:
		// reject an explicitly conflicting -algo, default the rest.
		algoSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "algo" {
				algoSet = true
			}
		})
		if algoSet && o.algo != estimator.CorrelationCompleteSharded {
			return roleConfig{}, fmt.Errorf("-role coordinator requires -algo %s (got %q)",
				estimator.CorrelationCompleteSharded, o.algo)
		}
		rc.server.Algo = estimator.CorrelationCompleteSharded
		rc.coord = &cluster.CoordinatorConfig{
			Topology:   top,
			Workers:    specs,
			WindowSize: o.window,
			SolverOpts: rc.server.SolverOpts,
			Logger:     logger,
		}
	}
	return rc, nil
}

// walOptions maps the -wal-* flags, the same for every role; without
// -wal-dir it is the zero Options, which disables durability.
func (o *options) walOptions() (wal.Options, error) {
	if o.walDir == "" {
		return wal.Options{}, nil
	}
	policy, err := wal.ParseSyncPolicy(o.walFsync)
	if err != nil {
		return wal.Options{}, err
	}
	return wal.Options{
		Dir:          o.walDir,
		Policy:       policy,
		SyncEvery:    o.walEvery,
		SegmentBytes: o.walSegBytes,
	}, nil
}

// fatal logs the error and exits nonzero; the slog replacement for
// log.Fatalf.
func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags.
func buildLogger(w *os.File, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// httpTimeouts bounds how long a client may hold a connection: without
// them one slow-written request (or an idle keep-alive pool) can pin
// server goroutines indefinitely.
type httpTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	idle       time.Duration
}

// loadTopology reads the topology file, or generates one when -gen is
// set.
func loadTopology(path, gen, scaleName string, seed int64) (*topology.Topology, error) {
	switch {
	case path != "" && gen != "":
		return nil, fmt.Errorf("-topology and -gen are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.ReadJSON(f)
	case gen != "":
		var kind experiment.TopologyKind
		switch gen {
		case "brite":
			kind = experiment.Brite
		case "sparse":
			kind = experiment.Sparse
		default:
			return nil, fmt.Errorf("unknown -gen %q (want brite or sparse)", gen)
		}
		var scale experiment.Scale
		switch scaleName {
		case "small":
			scale = experiment.Small()
		case "medium":
			scale = experiment.Medium()
		case "paper":
			scale = experiment.Paper()
		default:
			return nil, fmt.Errorf("unknown -scale %q", scaleName)
		}
		return experiment.BuildTopology(kind, scale, seed)
	default:
		return nil, fmt.Errorf("either -topology or -gen is required")
	}
}

// serveOpts carries the listener layout: the public address, an
// optional separate debug address (pprof + /metrics), and whether to
// expose pprof on the public listener.
type serveOpts struct {
	listen    string
	debugAddr string
	pprof     bool
	timeouts  httpTimeouts
}

// serve runs the streaming service until SIGINT/SIGTERM, then shuts
// down gracefully: stop accepting connections, stop the solver loop.
// SIGHUP logs a snapshot of the metric totals without interrupting
// service.
func serve(logger *slog.Logger, top *topology.Topology, cfg server.Config, opts serveOpts) error {
	s, err := server.New(top, cfg)
	if err != nil {
		return err
	}
	s.Start()
	defer s.Close()
	return runHTTP(logger, s.Handler(), opts)
}

// runHTTP serves handler on the configured listeners until
// SIGINT/SIGTERM, with the optional debug listener and SIGHUP metric
// snapshots; serve mode and worker mode share it.
func runHTTP(logger *slog.Logger, handler http.Handler, opts serveOpts) error {
	if opts.pprof && opts.debugAddr == "" {
		// Profiling on the public listener: explicit opt-in only.
		mux := http.NewServeMux()
		mountPprof(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              opts.listen,
		Handler:           handler,
		ReadHeaderTimeout: opts.timeouts.readHeader,
		ReadTimeout:       opts.timeouts.read,
		IdleTimeout:       opts.timeouts.idle,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			logMetricTotals(logger)
		}
	}()

	errc := make(chan error, 2)
	var debugSrv *http.Server
	if opts.debugAddr != "" {
		mux := http.NewServeMux()
		mountPprof(mux)
		mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))
		debugSrv = &http.Server{
			Addr:              opts.debugAddr,
			Handler:           mux,
			ReadHeaderTimeout: opts.timeouts.readHeader,
		}
		go func() {
			logger.Info("debug listener", "addr", opts.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
	}
	go func() {
		logger.Info("listening", "addr", opts.listen)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if debugSrv != nil {
		debugSrv.Shutdown(shutCtx)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	return nil
}

// parsePeers splits the -peers list into worker specs; peer order is
// the shard placement, so the same list must be passed across
// coordinator restarts.
func parsePeers(peers string) ([]cluster.WorkerSpec, error) {
	var specs []cluster.WorkerSpec
	for _, addr := range strings.Split(peers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		specs = append(specs, cluster.WorkerSpec{Addr: addr})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-role coordinator requires -peers (comma-separated worker URLs)")
	}
	return specs, nil
}

// mountPprof registers the net/http/pprof handlers on mux. Explicit
// registration (rather than the package's init-time DefaultServeMux
// side effect) keeps profiling strictly opt-in.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// logMetricTotals writes one log line per metric family summing its
// series — the SIGHUP "where are the counters" snapshot for operators
// without a scraper attached.
func logMetricTotals(logger *slog.Logger) {
	snap := telemetry.Default().Snapshot()
	totals := make(map[string]float64)
	for key, v := range snap {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// Histogram series: keep only the family's total observation
		// count; buckets and sums would double-count.
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			continue
		}
		totals[name] += v
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	args := make([]any, 0, 2*len(names))
	for _, name := range names {
		args = append(args, name, totals[name])
	}
	logger.Info("metrics snapshot", args...)
}

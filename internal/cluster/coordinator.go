package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Worker lifecycle states as the coordinator sees them.
const (
	stateConnecting  = "connecting"  // never yet assigned (fresh coordinator)
	stateHealthy     = "healthy"     // assigned and caught up; serving
	stateUnreachable = "unreachable" // an RPC failed; latched until rejoin succeeds
	stateRejoining   = "rejoining"   // assign + catch-up handshake in progress
)

// WorkerSpec names one worker process of the fleet.
type WorkerSpec struct {
	// ID is the placement identity sent with /c1/assign; empty defaults
	// to "w<index>" in peer order.
	ID string
	// Addr is the worker's internal API base URL, e.g.
	// "http://127.0.0.1:9101".
	Addr string
}

// CoordinatorConfig parameterizes the coordinator backend.
type CoordinatorConfig struct {
	// Topology is the monitored topology; workers must be running the
	// same one (checked by fingerprint on every assignment and probe).
	Topology *topology.Topology

	// Workers is the fleet. Shard k is placed on Workers[k mod len]:
	// deterministic, so a restarted coordinator re-derives the same
	// placement its workers' WALs were written under.
	Workers []WorkerSpec

	// WindowSize is the sliding window capacity, which workers must
	// share so sequence arithmetic and eviction agree fleet-wide.
	WindowSize int

	// SolverOpts configure the per-shard solves; the resolved settings
	// ship with each assignment so worker solves are bit-identical to a
	// local solve under the same options.
	SolverOpts []estimator.Option

	// Logger receives coordinator log events; nil means slog.Default().
	Logger *slog.Logger

	// RPCTimeout bounds each RPC attempt (default 5s).
	RPCTimeout time.Duration
	// HealthEvery is the per-worker probe/rejoin cadence (default 1s).
	HealthEvery time.Duration
	// Retries is how many extra attempts a failed RPC gets before the
	// worker is declared unreachable (default 2; application errors are
	// never retried).
	Retries int
	// RetryBackoff is the pause between attempts (default 100ms).
	RetryBackoff time.Duration
}

// workerHandle is the coordinator's live state for one worker.
type workerHandle struct {
	id     string
	addr   string
	shards []int // owned shards, ascending
	client *client

	mu      sync.Mutex
	state   string
	seq     uint64 // last acked ingest sequence
	lastErr string
}

func (h *workerHandle) getState() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

func (h *workerHandle) setSeq(seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq > h.seq {
		h.seq = seq
	}
}

// Coordinator is the cluster ShardBackend: it fans ingest batches out to
// the workers owning each shard, fetches per-shard solved blocks and
// merges them locally, health-checks the fleet, and replays missed
// intervals to rejoining workers from the server's retained window. It
// is the server.Cluster that plugs into server.Config.Backend.
type Coordinator struct {
	top      *topology.Topology
	fp       string
	sv       *estimator.ShardedSolver // local partition arithmetic + merge; never solves
	settings estimator.Settings
	window   int
	logger   *slog.Logger

	rpcTimeout  time.Duration
	healthEvery time.Duration
	retries     int
	backoff     time.Duration

	workers []*workerHandle
	owner   []*workerHandle // shard index → owning worker

	// decoders[k] decodes shard k's result blocks, keeping the last one
	// so an unchanged structure is not decoded again. Only shard k's
	// solve touches it, and the server serializes those.
	decoders []*ResultDecoder

	src       *server.Server // the server's live window; set by Start
	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

var _ server.Cluster = (*Coordinator)(nil)

// NewCoordinator validates the fleet spec and derives the placement. No
// RPCs happen here: every worker starts out connecting, and the health
// loops started by Start (via server.Start) perform the first
// assignment — ingest answers 503 shard_unavailable until the fleet is
// healthy.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Topology == nil {
		return nil, errors.New("cluster: coordinator requires a topology")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: coordinator requires at least one worker")
	}
	if cfg.WindowSize <= 0 || cfg.WindowSize > server.MaxWindowSize {
		return nil, fmt.Errorf("cluster: window size %d outside (0, %d]", cfg.WindowSize, server.MaxWindowSize)
	}
	settings, err := estimator.Apply(cfg.SolverOpts...)
	if err != nil {
		return nil, err
	}
	sv, err := estimator.NewShardedSolver(cfg.Topology, cfg.SolverOpts...)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	c := &Coordinator{
		top:         cfg.Topology,
		fp:          Fingerprint(cfg.Topology),
		sv:          sv,
		settings:    settings,
		window:      cfg.WindowSize,
		logger:      logger,
		rpcTimeout:  cfg.RPCTimeout,
		healthEvery: cfg.HealthEvery,
		retries:     cfg.Retries,
		backoff:     cfg.RetryBackoff,
		stop:        make(chan struct{}),
	}
	if c.rpcTimeout <= 0 {
		c.rpcTimeout = 5 * time.Second
	}
	if c.healthEvery <= 0 {
		c.healthEvery = time.Second
	}
	if c.retries < 0 {
		c.retries = 0
	} else if cfg.Retries == 0 {
		c.retries = 2
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	for i, spec := range cfg.Workers {
		id := spec.ID
		if id == "" {
			id = fmt.Sprintf("w%d", i)
		}
		if spec.Addr == "" {
			return nil, fmt.Errorf("cluster: worker %s has no address", id)
		}
		c.workers = append(c.workers, &workerHandle{
			id:     id,
			addr:   spec.Addr,
			client: &client{base: strings.TrimRight(spec.Addr, "/"), hc: &http.Client{}},
			state:  stateConnecting,
		})
	}
	c.owner = make([]*workerHandle, c.sv.NumShards())
	c.decoders = make([]*ResultDecoder, c.sv.NumShards())
	for k := range c.owner {
		h := c.workers[k%len(c.workers)]
		c.owner[k] = h
		h.shards = append(h.shards, k)
		c.decoders[k] = NewResultDecoder(c.top)
	}
	for _, h := range c.workers {
		metricShardsAssigned.With(h.id).Set(int64(len(h.shards)))
	}
	c.updateFleetGauges()
	return c, nil
}

// NumShards implements server.ShardBackend.
func (c *Coordinator) NumShards() int { return c.sv.NumShards() }

// ShardSize implements server.ShardBackend.
func (c *Coordinator) ShardSize(shard int) (paths, links int) { return c.sv.ShardSize(shard) }

// Merge implements server.ShardBackend: reassembly is local — the
// blocks were fetched over the wire, but gluing them is pure
// arithmetic over the coordinator's own window.
func (c *Coordinator) Merge(results []*core.Result, obs observe.Store) *estimator.Estimate {
	return c.sv.Merge(results, obs)
}

// Start implements server.Cluster: remember the server (its window is
// the catch-up replay source) and start one health loop per worker.
func (c *Coordinator) Start(src *server.Server) {
	c.startOnce.Do(func() {
		c.src = src
		for _, h := range c.workers {
			c.wg.Add(1)
			go c.healthLoop(h)
		}
	})
}

// Close implements server.Cluster.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
	})
}

// ClusterStatus implements server.Cluster.
func (c *Coordinator) ClusterStatus() *server.ClusterStatus {
	st := &server.ClusterStatus{Role: "coordinator"}
	for _, h := range c.workers {
		h.mu.Lock()
		ws := server.WorkerState{
			ID:        h.id,
			Addr:      h.addr,
			Shards:    h.shards,
			State:     h.state,
			SeqHigh:   h.seq,
			LastError: h.lastErr,
		}
		h.mu.Unlock()
		st.Workers = append(st.Workers, ws)
		if ws.State != stateHealthy {
			st.UnreachableShards = append(st.UnreachableShards, h.shards...)
		}
	}
	sort.Ints(st.UnreachableShards)
	return st
}

// Forward implements server.Cluster: replicate one ingest batch
// to every worker before the coordinator applies it locally. Any
// non-healthy worker fails the whole batch up front — the public API
// answers 503 and the window does not advance, which is what keeps
// catch-up replay race-free. A mid-flight failure can leave some
// workers with the batch applied and others without; the base sequence
// makes the client's retry exact (appliers skip, the rest apply).
func (c *Coordinator) Forward(baseSeq uint64, batch []*bitset.Set) error {
	for _, h := range c.workers {
		if len(h.shards) == 0 {
			continue
		}
		if st := h.getState(); st != stateHealthy {
			return fmt.Errorf("%w: worker %s is %s", server.ErrShardUnavailable, h.id, st)
		}
	}
	// One encoding, shared read-only by every worker's request.
	rec := wal.AppendRecord(nil, baseSeq, batch)
	start := time.Now()
	errCh := make(chan error, len(c.workers))
	n := 0
	for _, h := range c.workers {
		if len(h.shards) == 0 {
			continue
		}
		n++
		go func(h *workerHandle) {
			var resp IngestResponse
			if err := c.rpc(context.Background(), h, "ingest", http.MethodPost, "/c1/ingest", rec, &resp); err != nil {
				c.markUnreachable(h, err)
				errCh <- fmt.Errorf("%w: worker %s: %v", server.ErrShardUnavailable, h.id, err)
				return
			}
			h.setSeq(baseSeq + uint64(len(batch)))
			errCh <- nil
		}(h)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		metricFanout.Observe(time.Since(start).Seconds())
	}
	return firstErr
}

// SolveShard implements server.ShardBackend: fetch the shard's block
// from its owner. The window argument is ignored — the worker solves its
// own replica, which the ingest protocol keeps bit-identical to the
// shard's columns of the coordinator's window. Calls for one shard must
// be serialized (the server does): the shard's ResultDecoder carries
// the last block's structure from call to call.
func (c *Coordinator) SolveShard(ctx context.Context, shard int, _ *stream.Window) (server.ShardSolve, error) {
	h := c.owner[shard]
	if st := h.getState(); st != stateHealthy {
		return server.ShardSolve{}, fmt.Errorf("%w: shard %d owner %s is %s", server.ErrShardUnavailable, shard, h.id, st)
	}
	var body []byte
	err := c.rpc(ctx, h, "result", http.MethodGet, fmt.Sprintf("/c1/shards/%d/result", shard), nil, &body)
	if err != nil {
		// A solver failure means the worker is alive and the shard
		// genuinely failed; anything else (transport, not_assigned
		// after a restart, unknown_shard) means the replica cannot
		// serve and the health loop must repair it.
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeSolverFailed {
			c.markUnreachable(h, err)
		}
		return server.ShardSolve{}, fmt.Errorf("%w: shard %d: %v", server.ErrShardUnavailable, shard, err)
	}
	// A block for another shard, one naming a link, path or correlation
	// set outside the topology, or a body that is not a c3 block at all
	// is refused like a transport failure: the worker cannot serve until
	// the health loop rejoins it.
	resp, err := c.decoders[shard].Decode(body)
	if err != nil {
		err = fmt.Errorf("worker %s sent an invalid shard %d block: %w", h.id, shard, err)
	} else if resp.Shard != shard {
		err = fmt.Errorf("worker %s answered for shard %d, wanted %d", h.id, resp.Shard, shard)
	}
	if err != nil {
		c.markUnreachable(h, err)
		return server.ShardSolve{}, fmt.Errorf("%w: %v", server.ErrShardUnavailable, err)
	}
	return server.ShardSolve{
		Res:     resp.Result,
		SeqHigh: resp.SeqHigh,
		T:       resp.T,
		Info: estimator.SolveInfo{
			Tier:       resp.Tier,
			BuildTime:  time.Duration(resp.BuildNs),
			RepairTime: time.Duration(resp.RepairNs),
			SolveTime:  time.Duration(resp.SolveNs),
		},
	}, nil
}

// healthLoop drives one worker: an immediate first assignment, then a
// probe (healthy) or rejoin attempt (anything else) per tick.
func (c *Coordinator) healthLoop(h *workerHandle) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.healthEvery)
	defer ticker.Stop()
	c.checkWorker(h)
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.checkWorker(h)
		}
	}
}

func (c *Coordinator) checkWorker(h *workerHandle) {
	if h.getState() != stateHealthy {
		c.rejoin(h)
		return
	}
	var st WorkerStatusResponse
	if err := c.rpc(context.Background(), h, "status", http.MethodGet, "/c1/status", nil, &st); err != nil {
		c.markUnreachable(h, err)
		return
	}
	if st.Fingerprint != c.fp {
		c.markUnreachable(h, fmt.Errorf("worker %s monitors a different topology (fingerprint %.12s…, want %.12s…)", h.id, st.Fingerprint, c.fp))
	}
}

// rejoin runs the (re)placement handshake: assign (idempotent), then
// catch-up replay from one frozen clone of the coordinator's retained
// window. While it runs the worker is not healthy, so Forward rejects
// every batch and the window cannot advance under the replay — catch-up
// is exact, not chasing a moving target.
func (c *Coordinator) rejoin(h *workerHandle) {
	h.mu.Lock()
	h.state = stateRejoining
	h.mu.Unlock()
	c.updateFleetGauges()
	req := &AssignRequest{
		Fingerprint: c.fp,
		WorkerID:    h.id,
		Shards:      h.shards,
		WindowSize:  c.window,
		Solver:      c.settings,
	}
	var resp AssignResponse
	if err := c.rpc(context.Background(), h, "assign", http.MethodPost, "/c1/assign", req, &resp); err != nil {
		c.markUnreachable(h, err)
		return
	}
	if err := c.catchUp(h, resp.Seq, c.src.FreezeWindow()); err != nil {
		c.markUnreachable(h, err)
		return
	}
	seq := c.src.Seq()
	h.mu.Lock()
	h.state = stateHealthy
	h.lastErr = ""
	h.seq = seq
	h.mu.Unlock()
	c.updateFleetGauges()
	c.logger.Info("worker joined", "worker", h.id, "shards", h.shards, "seq", seq)
}

// catchUpChunk bounds one catch-up replay request. ~2048 rows keeps a
// request well under maxRPCBody at any realistic path count while
// amortizing the HTTP round trip.
const catchUpChunk = 2048

// catchUp brings a rejoining worker from wseq to the coordinator's
// sequence by replaying the missed rows of win, the frozen retained
// window, through the ordinary POST /c1/ingest: whole rows, which the
// worker masks to its shards' paths like every broadcast batch. A
// worker outside the replayable range — behind the retained window's
// low edge, or ahead of a coordinator that lost tail data in its own
// crash — is reset to the window base and replayed in full.
func (c *Coordinator) catchUp(h *workerHandle, wseq uint64, win *stream.Window) error {
	seq, low := win.Seq(), win.SeqLow()
	if wseq > seq || wseq < low {
		err := c.rpc(context.Background(), h, "reset", http.MethodPost, "/c1/reset", &ResetRequest{Seq: low}, nil)
		if err != nil {
			return fmt.Errorf("resetting %s: %w", h.id, err)
		}
		c.logger.Warn("worker reset for replay",
			"worker", h.id, "worker_seq", wseq, "window_low", low, "window_high", seq)
		wseq = low
	}
	replayed := 0
	for wseq < seq {
		t := int(wseq - low)
		end := min(t+catchUpChunk, win.T())
		rows := make([]*bitset.Set, 0, end-t)
		for i := t; i < end; i++ {
			rows = append(rows, win.CongestedAt(i))
		}
		err := c.rpc(context.Background(), h, "catchup", http.MethodPost, "/c1/ingest",
			wal.AppendRecord(nil, wseq, rows), nil)
		if err != nil {
			return fmt.Errorf("replaying to %s: %w", h.id, err)
		}
		replayed += len(rows)
		wseq = low + uint64(end)
	}
	if replayed > 0 {
		metricCatchupIntervals.Add(uint64(replayed))
		c.logger.Info("worker caught up", "worker", h.id, "intervals", replayed)
	}
	return nil
}

// markUnreachable latches the worker out of the fleet until the health
// loop rejoins it.
func (c *Coordinator) markUnreachable(h *workerHandle, err error) {
	h.mu.Lock()
	wasHealthy := h.state == stateHealthy
	h.state = stateUnreachable
	h.lastErr = err.Error()
	h.mu.Unlock()
	c.updateFleetGauges()
	if wasHealthy {
		c.logger.Warn("worker unreachable", "worker", h.id, "shards", h.shards, "error", err)
	}
}

// updateFleetGauges recomputes the fleet-level health gauges; callers
// hold no handle locks.
func (c *Coordinator) updateFleetGauges() {
	healthy, unreachable := 0, 0
	for _, h := range c.workers {
		if h.getState() == stateHealthy {
			healthy++
		} else {
			unreachable += len(h.shards)
		}
	}
	metricWorkersHealthy.Set(int64(healthy))
	metricShardsUnreachable.Set(int64(unreachable))
}

// rpc runs one named RPC with the configured per-attempt timeout,
// retrying transport failures with backoff. Application errors
// (*WireError) return immediately: the peer answered, so a retry would
// just repeat the answer.
func (c *Coordinator) rpc(ctx context.Context, h *workerHandle, name, method, path string, in, out any) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-c.stop:
				return lastErr
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff):
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.rpcTimeout)
		start := time.Now()
		err := h.client.do(actx, method, path, in, out)
		cancel()
		if err == nil {
			metricRPCDuration.With(h.id, name).Observe(time.Since(start).Seconds())
			return nil
		}
		metricRPCErrors.With(h.id, name).Inc()
		lastErr = err
		var we *WireError
		if errors.As(err, &we) {
			return err
		}
	}
	return lastErr
}

package stream

import (
	"math"
	"sync"

	"repro/internal/bitset"
	"repro/internal/observe"
)

// Store is the live ingest store of the streaming service: an
// observation store with ring semantics. Window implements it directly;
// Sharded implements it over one ring per correlation-set shard. The
// server programs against this interface so the sharded and single-ring
// layouts are interchangeable.
type Store interface {
	observe.Store
	observe.IntervalSource
	// Add appends one interval's congested-path set, evicting the
	// oldest interval when the window is full. Add bypasses any
	// attached BatchLog — it is the replay path.
	Add(congested *bitset.Set)
	// AddBatch appends a batch of intervals as one commit, logging it
	// to the attached BatchLog (if any) before applying. It returns
	// the sequence after the batch; on log failure nothing is applied.
	AddBatch(batch []*bitset.Set) (uint64, error)
	// SetLog attaches a write-ahead log; call only after replay, with
	// no ingest in flight.
	SetLog(l BatchLog)
	// ResetSeq fast-forwards an empty store to sequence number seq so
	// replay of a pruned log lands at the right ring positions.
	ResetSeq(seq uint64)
	// Seq returns the total number of intervals ever added.
	Seq() uint64
	// Cap returns the window capacity in intervals.
	Cap() int
	// CloneStore freezes the store: it returns an independent
	// copy-on-write snapshot, safe for concurrent readers (see
	// Window.Clone for what is shared and for the locking rule).
	CloneStore() Store
}

// CloneStore implements Store for Window.
func (w *Window) CloneStore() Store { return w.Clone() }

var (
	_ Store = (*Window)(nil)
	_ Store = (*Sharded)(nil)
)

// Sharded is a sliding-window observation store partitioned by a
// path→shard mapping (one ring per shard, all advancing in lockstep):
// every interval is routed to every shard, each shard's ring recording
// only the congestion of its own paths. Whole-universe queries combine
// the per-shard masks — ring geometry and sequence numbers are shared,
// so positions align across shards and the combined answers are
// bit-identical to a single Window fed the same intervals (property
// tested). Per-shard solver loops read one ring each through Shard,
// so a solve over shard A never touches shard B's masks.
//
// Ingest and snapshotting are internally synchronized with shard-aware
// granularity: AddBatch serializes batches on one ingest lock (batches
// stay atomic and ring lockstep holds) but applies each shard's column
// of the batch under that shard's own ring lock, and CloneShard takes
// only its shard's ring lock — so a shard solver cloning its ring
// waits for at most its own shard's slice of an in-flight batch, never
// for the whole multi-shard application. A freeze writes the ring it
// freezes (Window.Clone), so Clone — which holds the ingest lock for
// batch atomicity — also takes each ring lock around that ring's
// freeze; lock order is ingestMu → ringMu[s] everywhere. T coordinates
// on the ingest lock, Seq on shard 0's ring lock. The remaining query
// surface (GoodCount, CongestedAt, …) stays caller-synchronized: the
// server only issues those against frozen clones.
//
// When the partition is unknown (a nil mapping or a single shard),
// Sharded degrades to exactly one ring and delegates to it.
type Sharded struct {
	numPaths int
	shardOf  []int // path -> shard; nil means everything in shard 0
	shards   []*Window

	// ingestMu serializes writers (and whole-store snapshots against
	// them); ringMu[s] guards shard s's ring state, including the
	// ownership marks a freeze drops. Writers and Clone take ingestMu
	// then each ringMu in turn; CloneShard and Seq take exactly one.
	ingestMu sync.Mutex
	ringMu   []sync.Mutex

	// pathMask[s] is the path universe owned by shard s; routing holds
	// one reusable congested-path scratch per shard, filled under
	// ingestMu (Window.Add copies its input, so reuse is safe). one is
	// Add's single-interval batch header, also guarded by ingestMu.
	pathMask []*bitset.Set
	routing  []*bitset.Set
	one      [1]*bitset.Set

	// log, when set, persists each batch once (under ingestMu, so log
	// order is commit order) before the shard fan-out applies it.
	log BatchLog
}

// NewSharded returns an empty sharded window over numPaths paths
// retaining at most capacity intervals per shard, routed by shardOf
// (length numPaths, values in [0, numShards)). A nil shardOf or
// numShards ≤ 1 falls back to a single shard.
func NewSharded(numPaths, capacity int, shardOf []int, numShards int) *Sharded {
	if numShards <= 1 || shardOf == nil {
		shardOf = nil
		numShards = 1
	} else {
		if len(shardOf) != numPaths {
			panic("stream: shard mapping length does not match path universe")
		}
		for _, s := range shardOf {
			if s < 0 || s >= numShards {
				panic("stream: shard index out of range")
			}
		}
	}
	sh := &Sharded{
		numPaths: numPaths,
		shardOf:  shardOf,
		shards:   make([]*Window, numShards),
		ringMu:   make([]sync.Mutex, numShards),
		pathMask: make([]*bitset.Set, numShards),
		routing:  make([]*bitset.Set, numShards),
	}
	for i := range sh.shards {
		sh.shards[i] = NewWindow(numPaths, capacity)
		sh.pathMask[i] = bitset.New(numPaths)
		sh.routing[i] = bitset.New(numPaths)
	}
	for p, s := range shardOf {
		sh.pathMask[s].Add(p)
	}
	if shardOf == nil {
		for p := 0; p < numPaths; p++ {
			sh.pathMask[0].Add(p)
		}
	}
	return sh
}

// NumShards returns the number of rings.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// ShardOf returns the shard of path p.
func (sh *Sharded) ShardOf(p int) int {
	if sh.shardOf == nil {
		return 0
	}
	return sh.shardOf[p]
}

// Shard returns shard s's ring. It implements observe.Store over the
// full path universe with only shard s's paths ever congested, which is
// exactly what a per-shard solve reads. The result must only be
// mutated through the Sharded's own Add/AddBatch; live reads of it
// must hold the shard's ring lock (use CloneShard for a frozen copy).
func (sh *Sharded) Shard(s int) *Window { return sh.shards[s] }

// CloneShard freezes shard s's ring (Window.Clone), taking only that
// shard's ring lock: a shard solver snapshotting its input waits for at
// most its own shard's slice of an in-flight ingest batch.
func (sh *Sharded) CloneShard(s int) *Window {
	sh.ringMu[s].Lock()
	defer sh.ringMu[s].Unlock()
	return sh.shards[s].Clone()
}

// windowOf returns the ring owning path p.
func (sh *Sharded) windowOf(p int) *Window { return sh.shards[sh.ShardOf(p)] }

// Add appends one interval's congested-path set to every shard: each
// ring records the subset of congested paths it owns (possibly none —
// an all-good interval still advances every shard's frequencies).
// Indices outside the path universe are dropped, matching Window.
func (sh *Sharded) Add(congested *bitset.Set) {
	sh.ingestMu.Lock()
	defer sh.ingestMu.Unlock()
	sh.one[0] = congested
	sh.addBatchLocked(sh.one[:])
	sh.one[0] = nil
}

// AddBatch appends a batch of intervals to every shard, returning the
// ingest sequence after the batch. Batches are serialized on the
// ingest lock (so every ring sees every batch in the same order and
// lockstep holds), but each shard's column of the batch is applied
// under that shard's own ring lock — per-shard cloners (CloneShard)
// contend only with their own shard's application, never with the
// whole fan-out. With a log attached, the batch is persisted exactly
// once before the fan-out; on log failure nothing is applied and the
// pre-batch sequence is returned with the error.
func (sh *Sharded) AddBatch(batch []*bitset.Set) (uint64, error) {
	sh.ingestMu.Lock()
	defer sh.ingestMu.Unlock()
	if sh.log != nil {
		if _, err := sh.log.AppendBatch(batch); err != nil {
			return sh.shards[0].Seq(), err
		}
	}
	sh.addBatchLocked(batch)
	return sh.shards[0].Seq(), nil
}

// addBatchLocked applies the batch shard by shard; the caller holds
// ingestMu.
func (sh *Sharded) addBatchLocked(batch []*bitset.Set) {
	for s, w := range sh.shards {
		routed := sh.routing[s]
		sh.ringMu[s].Lock()
		for _, congested := range batch {
			if len(sh.shards) == 1 {
				w.Add(congested)
				continue
			}
			routed.Clear()
			routed.UnionWith(congested)
			routed.IntersectWith(sh.pathMask[s])
			w.Add(routed)
		}
		sh.ringMu[s].Unlock()
	}
}

// T returns the number of live intervals (identical across shards).
func (sh *Sharded) T() int {
	sh.ingestMu.Lock()
	defer sh.ingestMu.Unlock()
	return sh.shards[0].T()
}

// Cap returns the per-shard window capacity in intervals.
func (sh *Sharded) Cap() int { return sh.shards[0].Cap() }

// Seq returns the total number of intervals ever added.
func (sh *Sharded) Seq() uint64 {
	sh.ringMu[0].Lock()
	defer sh.ringMu[0].Unlock()
	return sh.shards[0].Seq()
}

// NumPaths returns the path universe size.
func (sh *Sharded) NumPaths() int { return sh.numPaths }

// CongestedFraction returns the fraction of live intervals in which
// path p was observed congested, read from p's own ring.
func (sh *Sharded) CongestedFraction(p int) float64 {
	return sh.windowOf(p).CongestedFraction(p)
}

// CongestedAt returns the congested-path set of the t-th live interval,
// oldest first: the union of the per-shard rows at that position. The
// result is freshly allocated (unlike Window's zero-copy row view) and
// reflects the store only until the next Add.
func (sh *Sharded) CongestedAt(t int) *bitset.Set {
	if len(sh.shards) == 1 {
		return sh.shards[0].CongestedAt(t)
	}
	out := bitset.New(sh.numPaths)
	for _, w := range sh.shards {
		out.UnionWith(w.CongestedAt(t))
	}
	return out
}

// GoodCount returns the number of live intervals in which every path in
// the set was good. Exactly Window.GoodCount, except each path's mask
// is read from its owning ring: rings share geometry and sequence, so
// the OR spans shards position-for-position.
func (sh *Sharded) GoodCount(paths *bitset.Set) int {
	w0 := sh.shards[0]
	if w0.count == 0 {
		return 0
	}
	sp := observe.GetScratch(w0.ringWords)
	sc := *sp
	for i := range sc {
		sc[i] = 0
	}
	paths.ForEach(func(p int) bool {
		if p < sh.numPaths {
			bitset.OrWordsInto(sc, sh.windowOf(p).cong[p])
		}
		return true
	})
	bad := bitset.PopCountWords(sc)
	observe.PutScratch(sp)
	return w0.count - bad
}

// GoodFreq returns the empirical probability that all paths in the set
// were simultaneously good within the window.
func (sh *Sharded) GoodFreq(paths *bitset.Set) float64 {
	if sh.T() == 0 {
		return 1
	}
	return float64(sh.GoodCount(paths)) / float64(sh.T())
}

// LogGoodFreq returns log P̂(∩ Y_p = 0) over the window, clamping a
// zero count to half an observation exactly like Window and Recorder.
func (sh *Sharded) LogGoodFreq(paths *bitset.Set) (logp float64, clamped bool) {
	if sh.T() == 0 {
		return 0, false
	}
	c := sh.GoodCount(paths)
	if c == 0 {
		return math.Log(0.5 / float64(sh.T())), true
	}
	return math.Log(float64(c) / float64(sh.T())), false
}

// AllCongestedCount returns the number of live intervals in which every
// path in the set was simultaneously congested: Window.AllCongestedCount
// with each mask read from its owning ring.
func (sh *Sharded) AllCongestedCount(paths *bitset.Set) int {
	w0 := sh.shards[0]
	if paths.IsEmpty() {
		return w0.count
	}
	if w0.count == 0 {
		return 0
	}
	sp := observe.GetScratch(w0.ringWords)
	sc := *sp
	w0.liveMask(sc)
	empty := false
	paths.ForEach(func(p int) bool {
		if p >= sh.numPaths {
			// A path outside the universe was never observed congested.
			empty = true
			return false
		}
		bitset.AndWordsInto(sc, sh.windowOf(p).cong[p])
		return true
	})
	n := 0
	if !empty {
		n = bitset.PopCountWords(sc)
	}
	observe.PutScratch(sp)
	return n
}

// AllCongestedFreq is AllCongestedCount normalized by T.
func (sh *Sharded) AllCongestedFreq(paths *bitset.Set) float64 {
	if sh.T() == 0 {
		return 0
	}
	return float64(sh.AllCongestedCount(paths)) / float64(sh.T())
}

// AlwaysGoodPaths returns the paths whose congested fraction within the
// window is ≤ tol; on an empty window all paths are vacuously good.
func (sh *Sharded) AlwaysGoodPaths(tol float64) *bitset.Set {
	out := bitset.New(sh.numPaths)
	if sh.T() == 0 {
		for p := 0; p < sh.numPaths; p++ {
			out.Add(p)
		}
		return out
	}
	for p := 0; p < sh.numPaths; p++ {
		if sh.CongestedFraction(p) <= tol {
			out.Add(p)
		}
	}
	return out
}

// Clone freezes every ring (Window.Clone) under the ingest lock, so the
// copy observes a batch-atomic lockstep state. Each ring is frozen
// under its own ring lock as well: a freeze writes its source, and
// CloneShard holds only the ring lock.
func (sh *Sharded) Clone() *Sharded {
	sh.ingestMu.Lock()
	defer sh.ingestMu.Unlock()
	c := &Sharded{
		numPaths: sh.numPaths,
		shardOf:  sh.shardOf, // immutable after construction
		shards:   make([]*Window, len(sh.shards)),
		ringMu:   make([]sync.Mutex, len(sh.shards)),
		pathMask: sh.pathMask, // immutable after construction
		routing:  make([]*bitset.Set, len(sh.shards)),
	}
	for i, w := range sh.shards {
		sh.ringMu[i].Lock()
		c.shards[i] = w.Clone()
		sh.ringMu[i].Unlock()
		c.routing[i] = bitset.New(sh.numPaths)
	}
	return c
}

// CloneStore implements Store.
func (sh *Sharded) CloneStore() Store { return sh.Clone() }

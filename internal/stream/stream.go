// Package stream provides the observation store: Window, the one
// observe.Store implementation. It keeps the most recent intervals of
// per-path congestion observations with O(words) add and evict. The
// streaming daemon (cmd/tomod) serves from a window sized by -window;
// offline callers (the experiments, the public facade, the tests) size
// a window to the whole run, so it never evicts and holds every
// interval they add.
//
// The store is columnar. Besides the per-interval congested-path sets
// (the row view, kept for CongestedAt and for eviction), each path
// keeps one congestion bitmask over *ring positions*. The ring spans
// ringWords = ⌈capacity/64⌉ whole words, so an interval with sequence
// number s occupies bit position s mod (ringWords·64); because at most
// `capacity` intervals are live at once, live intervals never collide,
// and evicting the oldest interval just clears its bit in the masks of
// the paths that were congested in it (found via the row view). The
// invariant that makes the queries cheap is that every dead ring
// position is zero in every mask:
//
//   - GoodCount over a path set P is T − popcount(OR of the |P|
//     masks) — O(|P|·T/64) words instead of a scan over all T rows,
//     and dead positions contribute nothing to the OR;
//   - AllCongestedCount ANDs the masks into a live-position mask
//     (a cyclic bit range, built in O(words));
//   - AlwaysGoodPaths reads per-path congestion counters maintained by
//     Add and evict.
//
// Queries draw their word buffer from a shared scratch pool, so they
// are allocation-free on the steady-state path and safe for concurrent
// readers; Add must be serialized against them by the caller (the
// server does so with a mutex, publishing frozen windows for query
// traffic).
//
// Clone is a copy-on-write freeze, not a deep copy: the clone gets its
// own row-pointer table, mask headers and congestion counters
// (O(paths + capacity) words) and shares every row bitset and every
// per-path mask with its source. Each window tracks which rows and
// masks it has written since it was last frozen; the first write to
// anything else replaces that one row or copies that one mask, so
// shared storage is never written by either side. A clone that is never
// added to is therefore immutable for good, whatever its source goes on
// to ingest.
//
// Freeze is that clone taken once per sequence. It returns a read-only
// clone (Add on it panics) and hands the same one back until the next
// Add or ResetSeq, so every snapshot, checkpoint and shard solve at one
// sequence shares one frozen window; the server and the cluster worker
// freeze only through it. Clone stays the private, add-able copy, for
// callers that go on to add to it.
//
// A correlation-set shard (topology.Partition) is a set of columns of
// this layout: shards share no path, so everything a shard's solve reads
// — the per-path congestion counters and the joint counts of path sets
// inside the shard — touches only that shard's masks. One window, frozen
// once, therefore serves every shard's solve; there are no per-shard
// rings.
package stream

import (
	"math"
	"sync"

	"repro/internal/bitset"
	"repro/internal/observe"
)

const wordBits = 64

// scratchPool holds the word buffers used by the mask queries. A pool
// (rather than a buffer owned by each window) is what makes the queries
// safe for concurrent readers while staying allocation-free once warm:
// each query checks a buffer out for its own use and returns it before
// finishing.
var scratchPool = sync.Pool{New: func() any { return new([]uint64) }}

// getScratch returns a pooled word buffer of length nw with unspecified
// contents. Callers must hand it back with putScratch.
func getScratch(nw int) *[]uint64 {
	p := scratchPool.Get().(*[]uint64)
	if cap(*p) < nw {
		*p = make([]uint64, nw)
	}
	*p = (*p)[:nw]
	return p
}

// putScratch returns a buffer obtained from getScratch to the pool.
func putScratch(p *[]uint64) { scratchPool.Put(p) }

// Window is the observation store over the most recent capacity
// intervals. It implements observe.Store, so every estimator runs over
// it directly.
type Window struct {
	numPaths  int
	capacity  int // max live intervals
	ringWords int // words spanned by the ring: ⌈capacity/64⌉

	// rows is the row-view ring: rows[s mod capacity] is the congested
	// path set of the interval with sequence number s. Slots are reused
	// across laps, so steady-state Add does not allocate.
	rows []*bitset.Set

	congCount []int // per path: live intervals observed congested

	// cong[p] is the columnar mask of path p over ring positions. Masks
	// are ragged — trailing zero words are not stored — so a
	// never-congested path costs nothing.
	cong [][]uint64

	// ownRow (over ring slots) and ownCong (over paths) mark the rows
	// and masks this window has written since it was last frozen: only
	// those are private and may be written in place. Everything else
	// may be shared with a clone (or the clone's source) and is replaced
	// or copied on first write. Clone clears the source's marks and
	// hands the clone empty ones.
	ownRow, ownCong []uint64

	count int    // live intervals, ≤ capacity
	seq   uint64 // total intervals ever added

	// log, when set, persists batches before AddBatch applies them.
	// Clones do not carry it: a frozen snapshot must never re-log.
	log BatchLog

	// frozen is the clone Freeze returned at the current sequence; Add
	// and ResetSeq drop it. readOnly marks a window Freeze made: it has
	// no ownership marks and refuses Add.
	frozen   *Window
	readOnly bool
}

var (
	_ observe.Store          = (*Window)(nil)
	_ observe.IntervalSource = (*Window)(nil)
)

// NewWindow returns an empty window over numPaths paths retaining at
// most capacity intervals.
func NewWindow(numPaths, capacity int) *Window {
	if numPaths < 0 {
		panic("stream: negative path count")
	}
	if capacity <= 0 {
		panic("stream: window capacity must be positive")
	}
	return &Window{
		numPaths:  numPaths,
		capacity:  capacity,
		ringWords: (capacity + wordBits - 1) / wordBits,
		rows:      make([]*bitset.Set, capacity),
		congCount: make([]int, numPaths),
		cong:      make([][]uint64, numPaths),
		ownRow:    make([]uint64, (capacity+wordBits-1)/wordBits),
		ownCong:   make([]uint64, (numPaths+wordBits-1)/wordBits),
	}
}

// NewSharded is NewWindow; the shard mapping is ignored (a shard is a
// set of columns of the one window, see the package comment).
//
// Deprecated: kept for bench/ only (frozen; tomobench/layers.go names
// it) until the next benchmark change drops the call.
func NewSharded(numPaths, capacity int, _ []int, _ int) *Window {
	return NewWindow(numPaths, capacity)
}

// ringBits is the number of bit positions in the ring.
func (w *Window) ringBits() int { return w.ringWords * wordBits }

// slotOf returns the ring bit position of the interval with sequence
// number s.
func (w *Window) slotOf(s uint64) int { return int(s % uint64(w.ringBits())) }

// Add appends one interval's congested-path set, evicting the oldest
// interval when the window is full. Indices outside the path universe
// are dropped, so the row and columnar views agree. The set is copied;
// steady state (after the first lap of the ring, with no Clone in
// between) allocates nothing, and the first Add after a Clone allocates
// one row plus one mask per path it touches.
func (w *Window) Add(congested *bitset.Set) {
	if w.readOnly {
		panic("stream: Add on a frozen window")
	}
	w.frozen = nil
	if w.count == w.capacity {
		w.evict()
	}
	ri := int(w.seq % uint64(w.capacity))
	row := w.rows[ri]
	if rw, rb := ri/wordBits, uint64(1)<<uint(ri%wordBits); w.ownRow[rw]&rb == 0 {
		// Empty slot, or a row a snapshot may still read: it is being
		// overwritten anyway, so replace it rather than copy it.
		row = bitset.New(w.numPaths)
		w.rows[ri] = row
		w.ownRow[rw] |= rb
	} else {
		row.Clear()
	}
	slot := w.slotOf(w.seq)
	wi, bit := slot/wordBits, uint64(1)<<uint(slot%wordBits)
	congested.ForEach(func(p int) bool {
		if p >= w.numPaths {
			return true
		}
		row.Add(p)
		w.congCount[p]++
		w.ownedMask(p, wi)[wi] |= bit
		return true
	})
	w.count++
	w.seq++
}

// ownedMask returns path p's mask, private to this window and at least
// wi+1 words long: a mask not written since the last freeze is copied
// first — at full ring capacity, so extending it afterwards is a
// re-slice over zeroed spare words, never a reallocation.
func (w *Window) ownedMask(p, wi int) []uint64 {
	m := w.cong[p]
	if pw, pb := p/wordBits, uint64(1)<<uint(p%wordBits); w.ownCong[pw]&pb == 0 {
		m = append(make([]uint64, 0, w.ringWords), m...)
		w.ownCong[pw] |= pb
	}
	if len(m) <= wi {
		m = m[:wi+1]
	}
	w.cong[p] = m
	return m
}

// evict removes the oldest interval: its bit is cleared in the mask of
// every path congested in it (good paths never had the bit set), which
// restores the dead-positions-are-zero invariant.
func (w *Window) evict() {
	s := w.seq - uint64(w.count)
	slot := w.slotOf(s)
	wi, bit := slot/wordBits, uint64(1)<<uint(slot%wordBits)
	w.rows[s%uint64(w.capacity)].ForEach(func(p int) bool {
		w.congCount[p]--
		w.ownedMask(p, wi)[wi] &^= bit
		return true
	})
	w.count--
	metricEvictions.Inc()
}

// T returns the number of live intervals (≤ Cap).
func (w *Window) T() int { return w.count }

// Cap returns the window capacity in intervals.
func (w *Window) Cap() int { return w.capacity }

// NumPaths returns the path universe size.
func (w *Window) NumPaths() int { return w.numPaths }

// Seq returns the total number of intervals ever added; the live window
// covers sequence numbers [Seq−T, Seq).
func (w *Window) Seq() uint64 { return w.seq }

// SeqLow returns the sequence number of the oldest live interval, i.e.
// Seq−T. Intervals below SeqLow have been evicted from the ring and can
// no longer be replayed from this window.
func (w *Window) SeqLow() uint64 { return w.seq - uint64(w.count) }

// CongestedAt returns the congested-path set of the t-th live interval,
// oldest first (t in [0, T())). The result must not be modified and is
// valid only until the next Add, which may reuse the row's storage; the
// server only calls this on frozen clones.
func (w *Window) CongestedAt(t int) *bitset.Set {
	if t < 0 || t >= w.count {
		panic("stream: CongestedAt index out of window")
	}
	s := w.seq - uint64(w.count) + uint64(t)
	return w.rows[s%uint64(w.capacity)]
}

// CongestedFraction returns the fraction of live intervals in which
// path p was observed congested.
func (w *Window) CongestedFraction(p int) float64 {
	if w.count == 0 {
		return 0
	}
	return float64(w.congCount[p]) / float64(w.count)
}

// GoodCount returns the number of live intervals in which every path in
// the set was good: T minus the popcount of the OR of the per-path
// masks (dead ring positions are zero in every mask).
func (w *Window) GoodCount(paths *bitset.Set) int {
	if w.count == 0 {
		return 0
	}
	sp := getScratch(w.ringWords)
	sc := *sp
	for i := range sc {
		sc[i] = 0
	}
	paths.ForEach(func(p int) bool {
		if p < w.numPaths {
			bitset.OrWordsInto(sc, w.cong[p])
		}
		return true
	})
	bad := bitset.PopCountWords(sc)
	putScratch(sp)
	return w.count - bad
}

// GoodFreq returns the empirical probability that all paths in the set
// were simultaneously good within the window.
func (w *Window) GoodFreq(paths *bitset.Set) float64 {
	if w.count == 0 {
		return 1
	}
	return float64(w.GoodCount(paths)) / float64(w.count)
}

// LogGoodFreq returns log P̂(∩ Y_p = 0) over the window, the observable
// side of the log-linear equations. A zero count is clamped to half an
// observation (the usual continuity correction) so that the logarithm
// stays finite; clamped reports whether clamping occurred.
func (w *Window) LogGoodFreq(paths *bitset.Set) (logp float64, clamped bool) {
	if w.count == 0 {
		return 0, false
	}
	c := w.GoodCount(paths)
	if c == 0 {
		return math.Log(0.5 / float64(w.count)), true
	}
	return math.Log(float64(c) / float64(w.count)), false
}

// AllCongestedCount returns the number of live intervals in which every
// path in the set was simultaneously congested: the popcount of the AND
// of the per-path masks restricted to live ring positions.
func (w *Window) AllCongestedCount(paths *bitset.Set) int {
	if paths.IsEmpty() {
		return w.count
	}
	if w.count == 0 {
		return 0
	}
	sp := getScratch(w.ringWords)
	sc := *sp
	w.liveMask(sc)
	empty := false
	paths.ForEach(func(p int) bool {
		if p >= w.numPaths {
			// A path outside the universe was never observed congested.
			empty = true
			return false
		}
		bitset.AndWordsInto(sc, w.cong[p])
		return true
	})
	n := 0
	if !empty {
		n = bitset.PopCountWords(sc)
	}
	putScratch(sp)
	return n
}

// AllCongestedFreq is AllCongestedCount normalized by T.
func (w *Window) AllCongestedFreq(paths *bitset.Set) float64 {
	if w.count == 0 {
		return 0
	}
	return float64(w.AllCongestedCount(paths)) / float64(w.count)
}

// AlwaysGoodPaths returns the paths whose congested fraction within the
// window is ≤ tol; on an empty window all paths are vacuously good.
func (w *Window) AlwaysGoodPaths(tol float64) *bitset.Set {
	out := bitset.New(w.numPaths)
	if w.count == 0 {
		for p := 0; p < w.numPaths; p++ {
			out.Add(p)
		}
		return out
	}
	for p := 0; p < w.numPaths; p++ {
		if w.CongestedFraction(p) <= tol {
			out.Add(p)
		}
	}
	return out
}

// liveMask fills sc (ringWords words) with a 1 at every live ring
// position: the cyclic bit range of the window's count positions
// starting at the oldest interval's slot.
func (w *Window) liveMask(sc []uint64) {
	for i := range sc {
		sc[i] = 0
	}
	a := w.slotOf(w.seq - uint64(w.count))
	if end := a + w.count; end <= w.ringBits() {
		setBitRange(sc, a, end)
	} else {
		setBitRange(sc, a, w.ringBits())
		setBitRange(sc, 0, end-w.ringBits())
	}
}

// setBitRange sets bits [lo, hi) in sc.
func setBitRange(sc []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if lw == hw {
		sc[lw] |= loMask & hiMask
		return
	}
	sc[lw] |= loMask
	for i := lw + 1; i < hw; i++ {
		sc[i] = ^uint64(0)
	}
	sc[hw] |= hiMask
}

// Clone freezes the window: it returns an independent copy, safe for
// any number of concurrent readers, that may itself be added to. The
// copy is structural — the row-pointer table, the mask headers and the
// congestion counters are copied (O(paths + capacity) words, a fixed
// handful of allocations), every row and mask is shared — and both
// sides copy on their first write to anything shared (see the package
// comment), so neither ever observes the other's later Adds.
//
// Clone writes its source (it drops the source's ownership marks), so
// callers must exclude Add and other Clones or Freezes of the same
// window for its duration; readers of either side need no exclusion.
// A frozen window has no marks, so cloning one writes nothing.
func (w *Window) Clone() *Window {
	c := w.clone()
	c.ownRow = make([]uint64, w.ringWords) // one bit per ring slot: ⌈capacity/64⌉ words
	c.ownCong = make([]uint64, (w.numPaths+wordBits-1)/wordBits)
	return c
}

// Freeze returns the window frozen at its current sequence: a Clone
// that nothing may add to (Add on it panics). The first Freeze after a
// change clones; every later one returns that same clone until the next
// Add or ResetSeq, so a sequence is frozen once however many readers
// ask. Freezing a frozen window returns it. Freeze has Clone's
// exclusion contract: the server freezes the live window under the
// ingest lock and computes over the frozen copy off-lock, so queries
// and ingest never contend with the solver.
func (w *Window) Freeze() *Window {
	if w.readOnly {
		return w
	}
	if w.frozen == nil {
		w.frozen = w.clone()
		w.frozen.readOnly = true
	}
	return w.frozen
}

// clone is the copy Clone and Freeze share: it drops w's ownership
// marks and returns w's state with none of its own.
func (w *Window) clone() *Window {
	// Zeroed by loops, not clear(): the race detector cannot see clear's
	// memclr, and these writes are why a freeze must exclude its peers.
	for i := range w.ownRow {
		w.ownRow[i] = 0
	}
	for i := range w.ownCong {
		w.ownCong[i] = 0
	}
	return &Window{
		numPaths:  w.numPaths,
		capacity:  w.capacity,
		ringWords: w.ringWords,
		rows:      append([]*bitset.Set(nil), w.rows...),
		congCount: append([]int(nil), w.congCount...),
		cong:      append([][]uint64(nil), w.cong...),
		count:     w.count,
		seq:       w.seq,
	}
}

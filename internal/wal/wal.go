// Package wal implements a segment-file write-ahead log for the
// streaming service's observation batches, making the sliding window
// durable across daemon restarts: ingest logs every batch before it is
// applied to the in-memory window, and a restarted daemon replays the
// retained tail of the log instead of starting from an empty window.
//
// Layout. The log is a directory of segment files named
// "<base>.wal" (base = the number of intervals logged before the
// segment, 16 hex digits so names sort chronologically). A segment is
// an 8-byte magic followed by length-prefixed records:
//
//	record  := u32 payloadLen | u32 crc32c(payload) | payload
//	payload := u64 baseSeq | u32 n | n × interval
//	interval:= u32 count | count × u32 pathIndex
//
// One record is one committed ingest batch; baseSeq is the total
// number of intervals logged before the batch, so records carry the
// exact commit order of the store they mirror (stream.Window sequence
// numbers). Path indices ascend strictly within an interval. All
// integers are little-endian; the checksum is CRC-32C (Castagnoli).
// AppendRecord and ParseRecord are this encoding, and it is the one
// batch codec for disk and wire: a cluster worker's POST /c1/ingest
// body is exactly one record.
//
// Durability policies. SyncPerBatch fsyncs inside every append (the
// batch is on stable storage before ingest acknowledges); SyncInterval
// (the default) marks the log dirty and a background goroutine fsyncs
// at most every SyncEvery, bounding loss to one interval's worth of
// batches; SyncOff leaves flushing to the OS except at rotation and
// Close. Appends encode into a reused slab and issue one Write, so the
// steady-state ingest hot path allocates nothing.
//
// Recovery contract. Open scans the segments oldest-first, validating
// framing, checksums and sequence continuity. A torn tail — an
// incomplete or checksum-failing suffix of the *final* segment with no
// valid record after it, exactly what a crash mid-write leaves — is
// truncated at the last valid record and recovery proceeds; the
// truncated byte count is reported. Corruption anywhere else (a
// non-final segment, or a bad record with valid records after it) is
// NOT silently dropped: Open fails loudly with ErrCorrupt, because
// truncating there would discard acknowledged data. Replay then
// streams the recovered batches oldest-first so the caller can rebuild
// its window; appends resume from the recovered high-water mark.
//
// Degradation contract. A failed write or fsync latches the log into a
// failed state: every later append returns the latched error (the
// server maps this to 503 + Retry-After on ingest) while queries keep
// being served from memory. A write or fsync that stalls past
// StallTimeout makes concurrent appends fail fast with ErrStalled
// instead of queueing behind the hung operation.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var magic = []byte("TOMOWAL1")

const (
	frameHeaderSize = 8  // u32 len + u32 crc
	payloadMinSize  = 12 // u64 baseSeq + u32 n
	segmentSuffix   = ".wal"

	// maxRecordPayload is a framing sanity bound: a length prefix past
	// it can only be garbage (the HTTP ingest body is capped far below).
	maxRecordPayload = 1 << 30
)

// Sentinel errors of the append/recovery surface.
var (
	// ErrCorrupt reports unrecoverable log damage: corruption outside
	// the torn tail, where truncating would silently discard
	// acknowledged records. Requires operator intervention.
	ErrCorrupt = errors.New("wal: corrupt log")

	// ErrStalled reports an append that gave up because a file
	// operation has been stuck past StallTimeout; ingest should back
	// off and retry rather than queue behind the hung disk.
	ErrStalled = errors.New("wal: disk stalled")

	// ErrClosed reports an append after Close.
	ErrClosed = errors.New("wal: closed")
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs from a background goroutine at
	// most every SyncEvery while the log is dirty.
	SyncInterval SyncPolicy = iota
	// SyncPerBatch fsyncs inside every append, before it returns.
	SyncPerBatch
	// SyncOff never fsyncs on the append path (only at segment
	// rotation and Close).
	SyncOff
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncPerBatch:
		return "batch"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses the flag spelling: batch, interval or off.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncPerBatch, nil
	case "interval", "":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval or off)", s)
	}
}

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string

	// FS overrides the filesystem; nil means the real one. Tests
	// inject fault-laden filesystems here.
	FS FS

	// Policy is the fsync policy (default SyncInterval).
	Policy SyncPolicy

	// SyncEvery is the background fsync cadence under SyncInterval
	// (default 100ms).
	SyncEvery time.Duration

	// SegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB). Records are never split across segments.
	SegmentBytes int64

	// Horizon is the replay window in intervals: retention pruning
	// deletes a closed segment once every interval in it has aged past
	// the newest Horizon intervals, so the log never outgrows what a
	// restart needs to replay. 0 retains everything.
	Horizon int

	// StallTimeout bounds how long an append waits behind an in-flight
	// file operation before failing fast with ErrStalled (default 2s).
	StallTimeout time.Duration

	// InitialSeq re-bases an empty log: when the directory holds no
	// segment, the first appended record carries this base sequence
	// instead of 0, so a window fast-forwarded with ResetSeq and its log
	// agree on numbering. Cluster workers use it when the coordinator
	// resets them past its window (the old log is removed and a fresh
	// one starts at the resync base). Ignored when the directory holds
	// any segment: recovery's numbering wins.
	InitialSeq uint64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 2 * time.Second
	}
	return o
}

// RecoveryStats describes what Open found in the log directory.
type RecoveryStats struct {
	// Records and Intervals are the valid records (= logged batches)
	// and the intervals they carry that survived recovery.
	Records   int
	Intervals int

	// FirstSeq is the sequence number before the first retained record
	// (> 0 once retention has pruned the head); LastSeq the recovered
	// high-water mark. Replay covers intervals (FirstSeq, LastSeq].
	FirstSeq uint64
	LastSeq  uint64

	// TruncatedBytes is the torn-tail suffix dropped from the final
	// segment (0 on a clean shutdown).
	TruncatedBytes int64
}

// segmentMeta is one retained segment. base is the interval count
// before the segment's first record; closed segments also know the
// count after their last record (the next segment's base).
type segmentMeta struct {
	name  string
	base  uint64
	bytes int64
}

// WAL is a write-ahead log open for appending. One goroutine may
// append at a time (the server serializes ingest anyway); Stats, Err
// and SeqHigh are safe from any goroutine and never block behind a
// stalled disk.
type WAL struct {
	opts      Options
	fs        FS
	recovered RecoveryStats

	mu       sync.Mutex // serializes file operations (append, sync, rotate, close)
	file     File
	segs     []segmentMeta // retained segments, oldest first; the last is active
	segBytes int64         // active segment size
	slab     []byte        // reused AppendRecord buffer
	closed   bool

	seq      atomic.Uint64 // intervals logged (high-water mark)
	bytes    atomic.Int64  // total retained bytes across segments
	segCount atomic.Int32  // mirrors len(segs) for lock-free Stats
	dirty    atomic.Bool   // unsynced appends pending (SyncInterval)
	opStart  atomic.Int64  // unix nanos when the in-flight file op began; 0 when idle
	failure  atomic.Value  // latched error (type error)
	syncStop chan struct{}
	syncDone chan struct{}
}

// Open scans (and, for a torn tail, repairs) the log directory and
// returns a WAL positioned to append after the recovered high-water
// mark. Call Replay before the first append to rebuild state, and
// Close on shutdown.
func Open(opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	w := &WAL{opts: opts, fs: opts.FS}
	if err := w.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if len(w.segs) == 0 && opts.InitialSeq > 0 {
		// Empty log: re-base the numbering before the active segment is
		// created, so the segment name and first record base agree.
		w.seq.Store(opts.InitialSeq)
		w.recovered.FirstSeq = opts.InitialSeq
		w.recovered.LastSeq = opts.InitialSeq
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		w.syncStop = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// Recovered returns what Open found.
func (w *WAL) Recovered() RecoveryStats { return w.recovered }

// SeqHigh returns the total number of intervals logged.
func (w *WAL) SeqHigh() uint64 { return w.seq.Load() }

// Err returns the latched failure, if a write or fsync has failed.
// Once latched the log stops accepting appends until the process
// restarts and recovers; see the degradation contract in the package
// comment.
func (w *WAL) Err() error {
	if err, ok := w.failure.Load().(error); ok {
		return err
	}
	return nil
}

func (w *WAL) fail(err error) error {
	w.failure.CompareAndSwap(nil, err)
	metricDegraded.Set(1)
	return err
}

// Stats is the live state surfaced on /v1/status.
type Stats struct {
	LastSeq  uint64
	Segments int
	Bytes    int64
	Policy   SyncPolicy
	Recovery RecoveryStats
}

// Stats returns the log's live counters without taking the writer
// lock, so a stalled disk never blocks a status probe.
func (w *WAL) Stats() Stats {
	return Stats{
		LastSeq:  w.seq.Load(),
		Segments: int(w.segCount.Load()),
		Bytes:    w.bytes.Load(),
		Policy:   w.opts.Policy,
		Recovery: w.recovered,
	}
}

// segmentName renders the canonical file name for a segment starting
// after base intervals.
func segmentName(base uint64) string {
	return fmt.Sprintf("%016x%s", base, segmentSuffix)
}

// parseSegmentName extracts the base from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if len(name) != 16+len(segmentSuffix) || name[16:] != segmentSuffix {
		return 0, false
	}
	base, err := strconv.ParseUint(name[:16], 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// scan validates every retained segment, truncates a torn tail, and
// initializes the sequence, segment list and recovery stats.
func (w *WAL) scan() error {
	entries, err := w.fs.ReadDir(w.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", w.opts.Dir, err)
	}
	type seg struct {
		name string
		base uint64
	}
	var found []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if base, ok := parseSegmentName(e.Name()); ok {
			found = append(found, seg{e.Name(), base})
		}
	}
	// ReadDir sorts by name and the zero-padded hex base sorts
	// numerically, so found is oldest-first already; verify anyway.
	for i := 1; i < len(found); i++ {
		if found[i].base <= found[i-1].base {
			return fmt.Errorf("%w: segment order %s after %s", ErrCorrupt, found[i].name, found[i-1].name)
		}
	}

	first := true
	var runningSeq uint64
	for i, sg := range found {
		final := i == len(found)-1
		path := filepath.Join(w.opts.Dir, sg.name)
		data, err := w.readFile(path)
		if err != nil {
			return fmt.Errorf("wal: reading %s: %w", sg.name, err)
		}
		if !first && sg.base != runningSeq {
			return fmt.Errorf("%w: segment %s starts at seq %d, want %d (missing segment?)",
				ErrCorrupt, sg.name, sg.base, runningSeq)
		}
		res, err := scanSegment(data, sg.base, !first, runningSeq, final)
		if err != nil {
			return fmt.Errorf("%s: %w", sg.name, err)
		}
		if res.truncateAt >= 0 {
			w.recovered.TruncatedBytes += int64(len(data)) - int64(res.truncateAt)
			if err := w.fs.Truncate(path, int64(res.truncateAt)); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", sg.name, err)
			}
			data = data[:res.truncateAt]
		}
		if res.records > 0 && first {
			w.recovered.FirstSeq = res.firstBase
			runningSeq = res.firstBase
			first = false
		}
		runningSeq += uint64(res.intervals)
		w.recovered.Records += res.records
		w.recovered.Intervals += res.intervals
		w.segs = append(w.segs, segmentMeta{name: sg.name, base: sg.base, bytes: int64(len(data))})
		w.bytes.Add(int64(len(data)))
	}
	w.recovered.LastSeq = runningSeq
	if first && len(found) > 0 {
		// Segments but no records (a re-based log closed before its
		// first append): the numbering lives in the newest segment name.
		base := found[len(found)-1].base
		w.recovered.FirstSeq, w.recovered.LastSeq = base, base
	}
	w.seq.Store(w.recovered.LastSeq)
	w.segCount.Store(int32(len(w.segs)))
	return nil
}

// readFile slurps one segment through the FS.
func (w *WAL) readFile(path string) ([]byte, error) {
	f, err := w.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// segScan is scanSegment's result. truncateAt < 0 means the segment is
// intact; otherwise it is the byte offset at which the torn tail
// starts.
type segScan struct {
	records    int
	intervals  int
	firstBase  uint64
	truncateAt int
}

// scanSegment walks one segment's records. haveSeq/expectSeq carry the
// cross-segment continuity check (haveSeq false on the very first
// record of the log, whose base seeds the sequence). final marks the
// last segment, the only one where a broken suffix may legally be a
// torn tail.
func scanSegment(data []byte, nameBase uint64, haveSeq bool, expectSeq uint64, final bool) (segScan, error) {
	res := segScan{truncateAt: -1}
	if len(data) < len(magic) {
		// A crash can tear the very creation of a segment: the final
		// segment may end up shorter than its magic, holding no
		// records. Anywhere else that's corruption.
		if final {
			res.truncateAt = 0
			return res, nil
		}
		return res, fmt.Errorf("%w: segment shorter than its header", ErrCorrupt)
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return res, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	off := len(magic)
	seq := expectSeq
	for off < len(data) {
		base, n, end, ok := recordAt(data, off)
		if !ok {
			if !final {
				return res, fmt.Errorf("%w: invalid record at offset %d", ErrCorrupt, off)
			}
			// Final segment: a broken record is a torn tail only if
			// nothing valid follows it — truncating past valid
			// acknowledged records must fail loudly instead.
			if nextOffCandidate(data, off) >= 0 && anyValidRecordFrom(data, nextOffCandidate(data, off)) {
				return res, fmt.Errorf("%w: invalid record at offset %d with valid records after it", ErrCorrupt, off)
			}
			res.truncateAt = off
			return res, nil
		}
		if haveSeq && base != seq {
			return res, fmt.Errorf("%w: record at offset %d has base seq %d, want %d", ErrCorrupt, off, base, seq)
		}
		if !haveSeq {
			if base != nameBase {
				return res, fmt.Errorf("%w: first record base %d does not match segment name base %d", ErrCorrupt, base, nameBase)
			}
			haveSeq = true
			res.firstBase = base
		}
		seq = base + uint64(n)
		res.records++
		res.intervals += n
		off = end
	}
	return res, nil
}

// AppendRecord appends the framed record of one batch to dst and
// returns the extended slice; base is the number of intervals logged
// before the batch. It is the one batch encoding, for segment files and
// for the cluster ingest body, and allocates nothing when dst has room
// for the record.
func AppendRecord(dst []byte, base uint64, batch []*bitset.Set) []byte {
	size := frameHeaderSize + payloadMinSize
	for _, s := range batch {
		size += 4 + 4*s.Count()
	}
	start := len(dst)
	dst = slices.Grow(dst, size)[:start+size]
	buf := dst[start:]
	binary.LittleEndian.PutUint64(buf[frameHeaderSize:], base)
	binary.LittleEndian.PutUint32(buf[frameHeaderSize+8:], uint32(len(batch)))
	off := frameHeaderSize + payloadMinSize
	for _, s := range batch {
		countOff := off
		off += 4
		n := 0
		s.ForEach(func(p int) bool {
			binary.LittleEndian.PutUint32(buf[off:], uint32(p))
			off += 4
			n++
			return true
		})
		binary.LittleEndian.PutUint32(buf[countOff:], uint32(n))
	}
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// ParseRecord decodes rec, which must be exactly one framed record:
// the frame length matches len(rec), the checksum holds, the interval
// lists tile the payload, and every list ascends strictly with indices
// below numPaths. Every count is checked against the bytes left before
// anything is sized by it, and each set is sized to its largest index,
// so a bounded universe bounds what a record can make it allocate. It
// returns the base sequence and the batch; AppendRecord of them gives
// back rec.
func ParseRecord(rec []byte, numPaths int) (base uint64, batch []*bitset.Set, err error) {
	base, n, err := checkRecord(rec, numPaths)
	if err != nil {
		return 0, nil, err
	}
	batch = make([]*bitset.Set, n)
	p := frameHeaderSize + payloadMinSize
	for i := range batch {
		count := int(binary.LittleEndian.Uint32(rec[p:]))
		p += 4
		size := 0
		if count > 0 {
			size = int(binary.LittleEndian.Uint32(rec[p+4*(count-1):])) + 1
		}
		set := bitset.New(size)
		for ; count > 0; count-- {
			set.Add(int(binary.LittleEndian.Uint32(rec[p:])))
			p += 4
		}
		batch[i] = set
	}
	return base, batch, nil
}

// checkRecord validates what ParseRecord decodes without building the
// batch, returning the base sequence and the interval count.
func checkRecord(rec []byte, numPaths int) (base uint64, n int, err error) {
	if len(rec) < frameHeaderSize+payloadMinSize {
		return 0, 0, fmt.Errorf("record of %d bytes is shorter than its %d-byte header", len(rec), frameHeaderSize+payloadMinSize)
	}
	if plen := binary.LittleEndian.Uint32(rec); uint64(plen) != uint64(len(rec)-frameHeaderSize) {
		return 0, 0, fmt.Errorf("frame length %d does not match the %d payload bytes", plen, len(rec)-frameHeaderSize)
	}
	payload := rec[frameHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rec[4:]) {
		return 0, 0, errors.New("checksum mismatch")
	}
	base = binary.LittleEndian.Uint64(payload)
	nIntervals := binary.LittleEndian.Uint32(payload[8:])
	p := payloadMinSize
	for i := uint32(0); i < nIntervals; i++ {
		if len(payload)-p < 4 {
			return 0, 0, fmt.Errorf("interval %d of %d: payload ends before its count", i, nIntervals)
		}
		count := binary.LittleEndian.Uint32(payload[p:])
		p += 4
		if count > uint32((len(payload)-p)/4) {
			return 0, 0, fmt.Errorf("interval %d: %d paths overrun the %d bytes left", i, count, len(payload)-p)
		}
		prev := -1
		for j := uint32(0); j < count; j++ {
			path := int(binary.LittleEndian.Uint32(payload[p:]))
			p += 4
			if path >= numPaths {
				return 0, 0, fmt.Errorf("interval %d: path %d outside universe [0,%d)", i, path, numPaths)
			}
			if path <= prev {
				return 0, 0, fmt.Errorf("interval %d: path %d after %d (paths must ascend)", i, path, prev)
			}
			prev = path
		}
	}
	if p != len(payload) {
		return 0, 0, fmt.Errorf("%d bytes after the last interval", len(payload)-p)
	}
	return base, int(nIntervals), nil
}

// recordAt validates the record at off against no universe bound and
// returns its header and end offset; ok is false on any defect —
// framing overrun, CRC mismatch, or a payload ParseRecord refuses.
func recordAt(data []byte, off int) (base uint64, n, end int, ok bool) {
	end = nextOffCandidate(data, off)
	if end < 0 {
		return 0, 0, 0, false
	}
	base, n, err := checkRecord(data[off:end], math.MaxInt)
	return base, n, end, err == nil
}

// nextOffCandidate returns where the record after the (broken) one at
// off would start if its length prefix were trusted, or -1 when the
// prefix itself is implausible.
func nextOffCandidate(data []byte, off int) int {
	if off+frameHeaderSize > len(data) {
		return -1
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	if plen < payloadMinSize || plen > maxRecordPayload || off+frameHeaderSize+plen > len(data) {
		return -1
	}
	return off + frameHeaderSize + plen
}

// anyValidRecordFrom reports whether a fully valid record parses at
// any frame boundary reachable from off.
func anyValidRecordFrom(data []byte, off int) bool {
	for off >= 0 && off < len(data) {
		if _, _, _, ok := recordAt(data, off); ok {
			return true
		}
		off = nextOffCandidate(data, off)
	}
	return false
}

// openActive opens the newest segment for appending, creating the
// first segment (or re-writing the magic of a fully-torn one) as
// needed.
func (w *WAL) openActive() error {
	if len(w.segs) == 0 {
		return w.newSegmentLocked()
	}
	last := &w.segs[len(w.segs)-1]
	path := filepath.Join(w.opts.Dir, last.name)
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening %s for append: %w", last.name, err)
	}
	w.file = f
	w.segBytes = last.bytes
	if w.segBytes == 0 {
		// The tail segment was torn down to nothing: restore its header.
		if _, err := f.Write(magic); err != nil {
			f.Close()
			return fmt.Errorf("wal: rewriting magic of %s: %w", last.name, err)
		}
		w.segBytes = int64(len(magic))
		last.bytes = w.segBytes
		w.bytes.Add(w.segBytes)
	}
	return nil
}

// newSegmentLocked creates and activates a fresh segment at the
// current sequence; the caller holds mu (or is still single-threaded
// in Open).
func (w *WAL) newSegmentLocked() error {
	base := w.seq.Load()
	name := segmentName(base)
	f, err := w.fs.OpenFile(filepath.Join(w.opts.Dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	if _, err := f.Write(magic); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing magic of %s: %w", name, err)
	}
	w.file = f
	w.segBytes = int64(len(magic))
	w.segs = append(w.segs, segmentMeta{name: name, base: base, bytes: w.segBytes})
	w.bytes.Add(w.segBytes)
	w.segCount.Store(int32(len(w.segs)))
	return nil
}

// Replay streams the recovered batches oldest-first: fn is called once
// per record with the sequence number before the batch and the decoded
// congested-path sets. Call it before the first append. Replay bounds
// no path index; Restore replays within the window's path universe.
func (w *WAL) Replay(fn func(baseSeq uint64, batch []*bitset.Set) error) error {
	return w.replay(math.MaxInt, fn)
}

// replay is Replay with every logged path index bounded by numPaths: a
// record naming a path outside [0, numPaths) fails with ErrCorrupt,
// naming the segment, the record and the index, before any set is
// sized by it.
func (w *WAL) replay(numPaths int, fn func(baseSeq uint64, batch []*bitset.Set) error) error {
	w.mu.Lock()
	segs := make([]segmentMeta, len(w.segs))
	copy(segs, w.segs)
	w.mu.Unlock()
	for _, sg := range segs {
		data, err := w.readFile(filepath.Join(w.opts.Dir, sg.name))
		if err != nil {
			return fmt.Errorf("wal: replaying %s: %w", sg.name, err)
		}
		if len(data) < len(magic) {
			continue // fully-torn tail segment, already truncated
		}
		for off, i := len(magic), 0; off < len(data); i++ {
			end := nextOffCandidate(data, off)
			if end < 0 {
				return fmt.Errorf("%w: replay found invalid record %d in %s at offset %d", ErrCorrupt, i, sg.name, off)
			}
			base, batch, err := ParseRecord(data[off:end], numPaths)
			if err != nil {
				return fmt.Errorf("%w: replaying record %d of %s at offset %d: %v", ErrCorrupt, i, sg.name, off, err)
			}
			if err := fn(base, batch); err != nil {
				return err
			}
			off = end
		}
	}
	return nil
}

// AppendBatch logs one committed ingest batch, returning the sequence
// number after it. It implements stream.BatchLog, so a Window with
// this log attached journals every batch before applying it. The append fails fast — without queueing behind a hung
// disk — when a previous operation has stalled past StallTimeout, and
// permanently once a write or fsync has failed (see Err).
func (w *WAL) AppendBatch(batch []*bitset.Set) (uint64, error) {
	if len(batch) == 0 {
		return w.seq.Load(), nil
	}
	if err := w.Err(); err != nil {
		return w.seq.Load(), err
	}
	if !w.lockWithDeadline() {
		return w.seq.Load(), ErrStalled
	}
	defer w.mu.Unlock()
	if w.closed {
		return w.seq.Load(), ErrClosed
	}
	if err := w.Err(); err != nil {
		return w.seq.Load(), err
	}
	base := w.seq.Load()
	buf := AppendRecord(w.slab[:0], base, batch)
	w.slab = buf
	w.opStart.Store(time.Now().UnixNano())
	_, err := w.file.Write(buf)
	w.opStart.Store(0)
	if err != nil {
		// The segment may now hold a partial frame; appending more would
		// bury valid-looking garbage mid-segment, so latch instead.
		return base, w.fail(fmt.Errorf("wal: appending record at seq %d: %w", base, err))
	}
	w.segBytes += int64(len(buf))
	w.segs[len(w.segs)-1].bytes = w.segBytes
	w.bytes.Add(int64(len(buf)))
	w.seq.Add(uint64(len(batch)))
	metricAppends.Inc()
	metricBytesWritten.Add(uint64(len(buf)))
	switch w.opts.Policy {
	case SyncPerBatch:
		if err := w.syncLocked(); err != nil {
			return w.seq.Load(), err
		}
	case SyncInterval:
		w.dirty.Store(true)
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return w.seq.Load(), err
		}
	}
	return w.seq.Load(), nil
}

// lockWithDeadline acquires mu unless the current holder's file
// operation has been in flight past StallTimeout (then false — the
// disk is stalled and the caller must not queue behind it).
func (w *WAL) lockWithDeadline() bool {
	if w.mu.TryLock() {
		return true
	}
	deadline := time.Now().Add(w.opts.StallTimeout)
	for {
		if w.stalledNow() {
			return false
		}
		if w.mu.TryLock() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// stalledNow reports whether the in-flight file operation (if any) has
// exceeded StallTimeout.
func (w *WAL) stalledNow() bool {
	start := w.opStart.Load()
	return start != 0 && time.Since(time.Unix(0, start)) > w.opts.StallTimeout
}

// Sync forces an fsync of the active segment (the background syncer
// and Close call it; tests use it to make interval-policy failures
// deterministic).
func (w *WAL) Sync() error {
	if err := w.Err(); err != nil {
		return err
	}
	if !w.lockWithDeadline() {
		return ErrStalled
	}
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.file == nil {
		return nil
	}
	w.dirty.Store(false)
	start := time.Now()
	w.opStart.Store(start.UnixNano())
	err := w.file.Sync()
	w.opStart.Store(0)
	metricFsyncSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return w.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	return nil
}

// syncLoop is the SyncInterval background fsync goroutine.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	ticker := time.NewTicker(w.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.syncStop:
			return
		case <-ticker.C:
			if !w.dirty.Load() {
				continue
			}
			if w.mu.TryLock() {
				w.syncLocked()
				w.mu.Unlock()
			}
		}
	}
}

// rotateLocked closes the active segment (fsyncing it so rotation is a
// durability point under every policy), opens a fresh one, and prunes
// segments the replay horizon no longer needs. Caller holds mu.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.file.Close(); err != nil {
		return w.fail(fmt.Errorf("wal: closing rotated segment: %w", err))
	}
	w.file = nil
	if err := w.newSegmentLocked(); err != nil {
		return w.fail(err)
	}
	metricRotations.Inc()
	w.pruneLocked()
	return nil
}

// pruneLocked deletes closed segments every interval of which has aged
// out of the replay horizon: segment i is prunable once segment i+1
// starts at or before seq−horizon. Caller holds mu.
func (w *WAL) pruneLocked() {
	if w.opts.Horizon <= 0 {
		return
	}
	seq := w.seq.Load()
	horizon := uint64(w.opts.Horizon)
	for len(w.segs) >= 2 && seq >= horizon && w.segs[1].base <= seq-horizon {
		old := w.segs[0]
		if err := w.fs.Remove(filepath.Join(w.opts.Dir, old.name)); err != nil {
			// Pruning is best-effort: a leftover segment only costs
			// disk, never correctness — recovery re-derives retention.
			break
		}
		w.segs = w.segs[1:]
		w.bytes.Add(-old.bytes)
	}
	w.segCount.Store(int32(len(w.segs)))
}

// Close flushes and closes the log. Appends after Close fail with
// ErrClosed.
func (w *WAL) Close() error {
	if w.syncStop != nil {
		select {
		case <-w.syncStop:
		default:
			close(w.syncStop)
			<-w.syncDone
		}
	}
	if !w.lockWithDeadline() {
		return ErrStalled
	}
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if w.file != nil {
		if cerr := w.file.Close(); err == nil {
			err = cerr
		}
		w.file = nil
	}
	return err
}

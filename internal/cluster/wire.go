// Package cluster distributes the streaming tomography service across
// processes along the correlation-set partition seam: a coordinator
// owns the public /v1/* surface and the full ingest window, workers own
// disjoint sets of partition shards (one masked window and one WAL per
// worker, a warm structural plan per shard), and the two sides speak a
// small versioned wire format over HTTP. The block-diagonal structure
// makes the distribution exact: each shard's solve reads only its own
// paths, so the coordinator's scatter-gather merge (core.MergeResults)
// is bit-identical to a single-process sharded solve over the same
// intervals.
//
// Wire contract (version "c3"). The two RPCs every batch pays for carry
// length-checked binary bodies; the control RPCs carry JSON. Every JSON
// body, and every non-2xx answer of any route, is an envelope carrying
// the version and exactly one of data/error:
//
//   - POST /c1/assign        — shard placement (JSON): topology
//     fingerprint, window size, solver settings, shard list.
//     Idempotent; replies with the worker's recovered (WAL-replayed)
//     sequence.
//   - POST /c1/ingest        — batched ingest. The body is exactly one
//     WAL record (wal.AppendRecord: u32 len | u32 crc32c | u64 base |
//     u32 n | n × (u32 count | count × u32 path)), keyed by the
//     sender's pre-batch sequence; the worker skips the already-applied
//     prefix (retry dedupe) and rejects gaps. Catch-up replay uses it
//     too. The ack is a JSON envelope.
//   - POST /c1/reset         — discard the worker's window and WAL and
//     fast-forward to a base sequence (worker fell behind the
//     coordinator's retained window, or ran ahead of a recovered
//     coordinator).
//   - GET  /c1/shards/{k}/result — the shard's solved block at the
//     worker's current sequence (solved on demand, warm plans, cached
//     until the window advances), as a binary block: see
//     ShardResultResponse.AppendTo.
//   - GET  /c1/status        — worker identity, fingerprint, sequence.
//
// The binary bodies are one codec for disk and wire: an ingest batch
// crosses the wire in the bytes the worker's WAL logs, and the result
// block carries good-probabilities as raw IEEE-754 words, so a NaN
// crosses as itself and merged estimates stay bit-identical.
//
// Failure semantics: the coordinator health-checks each worker and
// latches it unreachable on any RPC failure; while any shard is
// unreachable, ingest answers 503 shard_unavailable (nothing is ever
// half-applied: the fan-out precedes the coordinator's local apply, and
// workers deduplicate retried batches by base sequence) and queries
// keep serving the last merged snapshot. A restarted worker replays its
// WAL, reports its recovered sequence, and the health loop replays the
// missed suffix from the coordinator's window — or resets the worker
// when the gap has left the retained window.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/topology"
)

// WireVersion tags every internal-API response envelope; both sides
// reject versions they do not understand. (The URL prefix stays /c1/.)
const WireVersion = "c3"

// maxRPCBody bounds one internal-API body on both sides (decode and
// reply), mirroring the public API's ingest bound.
const maxRPCBody = 64 << 20

// Machine-readable error codes of the cluster wire format. Like the
// public API, peers dispatch on Code, never on Message.
const (
	CodeWireVersion       = "wire_version"       // peer speaks an unknown wire version
	CodeTopologyMismatch  = "topology_mismatch"  // fingerprints disagree: the fleet is not monitoring one topology
	CodeNotAssigned       = "not_assigned"       // RPC before a successful /c1/assign
	CodeUnknownShard      = "unknown_shard"      // shard index not assigned to this worker
	CodeSeqGap            = "seq_gap"            // ingest base is ahead of the worker (missed batches); carries the worker's seq
	CodeAssignmentChanged = "assignment_changed" // assign conflicts with live state; restart the worker to re-place
	CodeBadRequest        = "bad_request"        // malformed body or path
	CodeNotSolved         = "not_solved"         // result requested from an empty shard (nothing ingested yet)
	CodeSolverFailed      = "solver_failed"      // the shard solve returned an error
	CodeWALUnavailable    = "wal_unavailable"    // the worker's WAL cannot accept the batch
)

// WireError is the error payload of the internal API; it implements
// error so clients can errors.As straight out of an RPC call.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Seq carries the worker's sequence on seq_gap, so the coordinator
	// can see exactly how far behind the worker is.
	Seq uint64 `json:"seq,omitempty"`
}

func (e *WireError) Error() string { return fmt.Sprintf("cluster: %s: %s", e.Code, e.Message) }

// envelope wraps every internal-API response.
type envelope struct {
	WireVersion string          `json:"wire_version"`
	Data        json.RawMessage `json:"data,omitempty"`
	Error       *WireError      `json:"error,omitempty"`
}

// AssignRequest is POST /c1/assign: the coordinator places a set of
// partition shards on a worker. The fingerprint pins both sides to the
// same topology (and therefore the same partition, which both compute
// locally and never ship); the solver settings make worker solves
// bit-identical to what the coordinator would compute itself.
type AssignRequest struct {
	Fingerprint string             `json:"topology_fingerprint"`
	WorkerID    string             `json:"worker_id"`
	Shards      []int              `json:"shards"`
	WindowSize  int                `json:"window_size"`
	Solver      estimator.Settings `json:"solver"`
}

// AssignResponse acknowledges placement with the worker's current
// (possibly WAL-recovered) sequence, from which the coordinator plans
// catch-up.
type AssignResponse struct {
	WorkerID string `json:"worker_id"`
	Seq      uint64 `json:"seq"`
}

// IngestResponse acks the batch with the worker's sequence after it.
type IngestResponse struct {
	Seq uint64 `json:"seq"`
}

// ResetRequest is POST /c1/reset: discard the worker's window and WAL
// and fast-forward the empty state to Seq. Used when a worker's
// recovered sequence falls outside what the coordinator can replay.
type ResetRequest struct {
	Seq uint64 `json:"seq"`
}

// ResetResponse acknowledges the reset.
type ResetResponse struct {
	Seq uint64 `json:"seq"`
}

// ShardResultResponse is GET /c1/shards/{k}/result: the shard's solved
// block — the exported fields core.MergeResults reads — plus the
// sequence it was solved at and how the worker's warm plan served. It
// crosses the wire as the binary block AppendTo writes and
// ParseShardResult reads.
type ShardResultResponse struct {
	Shard   int
	SeqHigh uint64
	T       int
	core.Tier
	BuildNs  int64
	RepairNs int64
	SolveNs  int64
	*core.Result
}

// resultMagic and resultVersion open every result block. A 2xx body
// without them is not a c3 block — a c2 worker answers with a JSON
// envelope — and is refused as wire_version.
var resultMagic = [4]byte{'T', 'O', 'M', 'R'}

const resultVersion = 3

// Fixed sizes of the result block: the header (magic, version, tier
// bits, shard, seq_high, t, build / repair / solve ns, rank, nullity,
// clamped_rows, subset count) and a subset's fixed part (corr_set,
// identifiable, good_prob, link count).
const (
	resultHeaderSize = 62
	subsetFixedSize  = 17
)

// Tier bits of the result header.
const (
	tierWarm = 1 << iota
	tierRepaired
	tierRepairedNumeric
	tierRepairFailed
)

// AppendTo appends the block's wire encoding to dst and returns the
// extended slice. All integers are little-endian:
//
//	block  := header | u32 nSubsets | nSubsets × subset | u32 nPathSets | nPathSets × list
//	header := "TOMR" | u8 version (3) | u8 tier bits (warm, repaired, repaired_numeric,
//	          repair_failed) | u32 shard | u64 seq_high | u32 t | i64 build_ns |
//	          i64 repair_ns | i64 solve_ns | u32 rank | u32 nullity | u32 clamped_rows
//	subset := u32 corr_set | u8 identifiable | u64 good_prob (IEEE-754 bits) | list (links)
//	list   := u32 count | count × u32 index, strictly ascending
func (r *ShardResultResponse) AppendTo(dst []byte) []byte {
	size := resultHeaderSize + 4
	for _, sub := range r.Subsets {
		size += subsetFixedSize + 4*sub.Links.Count()
	}
	for _, ps := range r.PathSets {
		size += 4 + 4*ps.Count()
	}
	dst = slices.Grow(dst, size)
	var tier byte
	for bit, set := range []bool{r.Warm, r.Repaired, r.RepairedNumeric, r.RepairFailed} {
		if set {
			tier |= 1 << bit
		}
	}
	le := binary.LittleEndian
	dst = append(dst, resultMagic[:]...)
	dst = append(dst, resultVersion, tier)
	dst = le.AppendUint32(dst, uint32(r.Shard))
	dst = le.AppendUint64(dst, r.SeqHigh)
	dst = le.AppendUint32(dst, uint32(r.T))
	dst = le.AppendUint64(dst, uint64(r.BuildNs))
	dst = le.AppendUint64(dst, uint64(r.RepairNs))
	dst = le.AppendUint64(dst, uint64(r.SolveNs))
	dst = le.AppendUint32(dst, uint32(r.Rank))
	dst = le.AppendUint32(dst, uint32(r.Nullity))
	dst = le.AppendUint32(dst, uint32(r.ClampedRows))
	dst = le.AppendUint32(dst, uint32(len(r.Subsets)))
	for _, sub := range r.Subsets {
		dst = le.AppendUint32(dst, uint32(sub.CorrSet))
		var ident byte
		if sub.Identifiable {
			ident = 1
		}
		dst = append(dst, ident)
		dst = le.AppendUint64(dst, math.Float64bits(sub.GoodProb))
		dst = appendList(dst, sub.Links)
	}
	dst = le.AppendUint32(dst, uint32(len(r.PathSets)))
	for _, ps := range r.PathSets {
		dst = appendList(dst, ps)
	}
	return dst
}

// appendList appends a set as a counted, ascending index list.
func appendList(dst []byte, s *bitset.Set) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Count()))
	s.ForEach(func(i int) bool {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		return true
	})
	return dst
}

// ParseShardResult decodes a result block over top's universes; AppendTo
// of what it returns gives back body. The block comes from another
// process, so it is refused unless it is exactly one canonical block:
// every subset names a correlation set of top, every link and path
// index lies in its universe and every list ascends strictly, and no
// byte trails it. Every count is checked against the bytes left before
// anything is sized by it. A body that is not a c3 block at all comes
// back as a wire_version *WireError.
func ParseShardResult(body []byte, top *topology.Topology) (*ShardResultResponse, error) {
	r, _, err := parseShardResult(body, top)
	return r, err
}

// parseShardResult is ParseShardResult, also returning the offset of
// each subset in body.
func parseShardResult(body []byte, top *topology.Topology) (*ShardResultResponse, []int, error) {
	if len(body) < len(resultMagic)+1 || [4]byte(body) != resultMagic || body[4] != resultVersion {
		return nil, nil, &WireError{Code: CodeWireVersion,
			Message: fmt.Sprintf("result body is not a %s block", WireVersion)}
	}
	if len(body) < resultHeaderSize {
		return nil, nil, fmt.Errorf("block of %d bytes ends inside its %d-byte header", len(body), resultHeaderSize)
	}
	r, err := parseHeader(body)
	if err != nil {
		return nil, nil, err
	}
	le := binary.LittleEndian
	rest := body[resultHeaderSize:]
	n := le.Uint32(body[58:])
	if n > uint32(len(rest)/subsetFixedSize) {
		return nil, nil, fmt.Errorf("%d subsets overrun the %d bytes left", n, len(rest))
	}
	subsets := make([]core.SubsetResult, n)
	offs := make([]int, n)
	for i := range subsets {
		if len(rest) < subsetFixedSize {
			return nil, nil, fmt.Errorf("subset %d: block ends inside it", i)
		}
		offs[i] = len(body) - len(rest)
		cs := le.Uint32(rest)
		if cs >= uint32(len(top.CorrSets)) {
			return nil, nil, fmt.Errorf("subset %d: correlation set %d outside [0,%d)", i, cs, len(top.CorrSets))
		}
		if err := readSubsetValues(&subsets[i], rest); err != nil {
			return nil, nil, fmt.Errorf("subset %d: %v", i, err)
		}
		links, tail, err := readList(rest[subsetFixedSize-4:], top.NumLinks())
		if err != nil {
			return nil, nil, fmt.Errorf("subset %d: link %v", i, err)
		}
		subsets[i].Links, subsets[i].CorrSet = links, int(cs)
		rest = tail
	}
	if len(rest) < 4 {
		return nil, nil, errors.New("block ends before its path-set count")
	}
	n, rest = le.Uint32(rest), rest[4:]
	if n > uint32(len(rest)/4) {
		return nil, nil, fmt.Errorf("%d path sets overrun the %d bytes left", n, len(rest))
	}
	pathSets := make([]*bitset.Set, n)
	for i := range pathSets {
		set, tail, err := readList(rest, top.NumPaths())
		if err != nil {
			return nil, nil, fmt.Errorf("path set %d: path %v", i, err)
		}
		pathSets[i], rest = set, tail
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%d bytes after the last path set", len(rest))
	}
	rank, nullity, clamped := blockCounts(body)
	r.Result = core.NewShardResult(subsets, pathSets, rank, nullity, clamped)
	return r, offs, nil
}

// parseHeader decodes the header of a block whose magic, version and
// length have been checked: the shard, sequence, T, tier bits and
// timings.
func parseHeader(body []byte) (*ShardResultResponse, error) {
	le := binary.LittleEndian
	tier := body[5]
	if tier >= tierRepairFailed<<1 {
		return nil, fmt.Errorf("unknown tier bits %#x", tier)
	}
	return &ShardResultResponse{
		Shard:   int(le.Uint32(body[6:])),
		SeqHigh: le.Uint64(body[10:]),
		T:       int(le.Uint32(body[18:])),
		Tier: core.Tier{
			Warm:            tier&tierWarm != 0,
			Repaired:        tier&tierRepaired != 0,
			RepairedNumeric: tier&tierRepairedNumeric != 0,
			RepairFailed:    tier&tierRepairFailed != 0,
		},
		BuildNs:  int64(le.Uint64(body[22:])),
		RepairNs: int64(le.Uint64(body[30:])),
		SolveNs:  int64(le.Uint64(body[38:])),
	}, nil
}

// blockCounts returns the header's rank, nullity and clamped-row count.
func blockCounts(body []byte) (rank, nullity, clampedRows int) {
	le := binary.LittleEndian
	return int(le.Uint32(body[46:])), int(le.Uint32(body[50:])), int(le.Uint32(body[54:]))
}

// readSubsetValues reads the per-epoch values of the subset whose
// fixed part starts sub — its identifiable byte and good_prob word —
// into s.
func readSubsetValues(s *core.SubsetResult, sub []byte) error {
	if sub[4] > 1 {
		return fmt.Errorf("identifiable byte %d", sub[4])
	}
	s.Identifiable = sub[4] == 1
	s.GoodProb = math.Float64frombits(binary.LittleEndian.Uint64(sub[5:]))
	return nil
}

// ResultDecoder decodes one shard's successive result blocks. A warm
// plan sends the same structure epoch after epoch — the same subsets'
// correlation sets and link lists, the same path sets — under new
// per-epoch fields: the header's sequence, T, tier bits, timings and
// counts, and each subset's identifiable byte and good_prob word. When
// every other byte of a block equals the last decoded block's, Decode
// reads only those fields, in O(subsets), and the decode shares the
// last one's link sets, path sets, subset index and structure token
// (core.NewShardResultLike). Any other block is parsed in full by
// ParseShardResult. Decode accepts exactly the blocks ParseShardResult
// accepts and returns an equal decode. A ResultDecoder is not safe for
// concurrent use.
type ResultDecoder struct {
	top  *topology.Topology
	body []byte               // the last decoded block, copied
	last *ShardResultResponse // its decode
	offs []int                // the offset of each of its subsets
}

// NewResultDecoder returns a decoder of result blocks over top.
func NewResultDecoder(top *topology.Topology) *ResultDecoder {
	return &ResultDecoder{top: top}
}

// Decode decodes body like ParseShardResult. body is not retained.
func (d *ResultDecoder) Decode(body []byte) (*ShardResultResponse, error) {
	r := d.reuse(body)
	if r == nil {
		parsed, offs, err := parseShardResult(body, d.top)
		if err != nil {
			return nil, err
		}
		r, d.offs = parsed, offs
	}
	d.body, d.last = append(d.body[:0], body...), r
	return r, nil
}

// reuse decodes body over the last block's structure, or returns nil
// when body's structural bytes differ from it or a per-epoch field
// fails its check — ParseShardResult then decides.
func (d *ResultDecoder) reuse(body []byte) *ShardResultResponse {
	prev := d.body
	if d.last == nil || len(body) != len(prev) {
		return nil
	}
	// Compare every byte outside the per-epoch fields: the tier byte
	// and the sequence-to-counts run of the header, then each subset's
	// identifiable byte and good_prob word.
	at := 0
	same := func(from, to int) bool {
		eq := bytes.Equal(body[at:from], prev[at:from])
		at = to
		return eq
	}
	if !same(5, 6) || !same(10, resultHeaderSize-4) {
		return nil
	}
	for _, off := range d.offs {
		if !same(off+4, off+subsetFixedSize-4) {
			return nil
		}
	}
	if !same(len(body), len(body)) {
		return nil
	}
	r, err := parseHeader(body)
	if err != nil {
		return nil
	}
	subsets := make([]core.SubsetResult, len(d.offs))
	for i, off := range d.offs {
		ps := d.last.Subsets[i]
		subsets[i] = core.SubsetResult{Links: ps.Links, CorrSet: ps.CorrSet}
		if readSubsetValues(&subsets[i], body[off:]) != nil {
			return nil
		}
	}
	rank, nullity, clamped := blockCounts(body)
	r.Result = core.NewShardResultLike(d.last.Result, subsets, rank, nullity, clamped)
	return r
}

// readList decodes one counted index list at the head of b into a set
// over [0, n), returning what follows it.
func readList(b []byte, n int) (*bitset.Set, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("list: block ends before its count")
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if count > uint32(len(b)/4) {
		return nil, nil, fmt.Errorf("list: count %d overruns the %d bytes left", count, len(b))
	}
	set := bitset.New(n)
	prev := -1
	for j := 0; j < int(count); j++ {
		i := int(binary.LittleEndian.Uint32(b[4*j:]))
		if i >= n {
			return nil, nil, fmt.Errorf("%d outside universe [0,%d)", i, n)
		}
		if i <= prev {
			return nil, nil, fmt.Errorf("%d after %d (indices must ascend)", i, prev)
		}
		set.Add(i)
		prev = i
	}
	return set, b[4*count:], nil
}

// WorkerStatusResponse is GET /c1/status on a worker.
type WorkerStatusResponse struct {
	WorkerID    string `json:"worker_id"`
	Fingerprint string `json:"topology_fingerprint"`
	WindowSize  int    `json:"window_size"`
	Seq         uint64 `json:"seq"`
}

// Fingerprint identifies a topology on the wire: the hash of its
// canonical JSON serialization. Both sides compute their partition from
// the topology locally, so agreeing on the fingerprint means agreeing
// on the shard universe.
func Fingerprint(top *topology.Topology) string {
	h := sha256.New()
	if err := top.WriteJSON(h); err != nil {
		// WriteJSON to a hash cannot fail short of a marshal bug; make
		// that loud rather than fingerprint-collide.
		panic(fmt.Sprintf("cluster: fingerprinting topology: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// client is one peer's view of a worker's internal API.
type client struct {
	base string // e.g. "http://127.0.0.1:9101"
	hc   *http.Client
}

// do performs one RPC. in is the request body: nil for none, a []byte
// sent as is (the binary ingest record), anything else as JSON. A 2xx
// answer is a versioned JSON envelope whose data is unmarshalled into
// out (nil discards it) — unless out is a *[]byte, which receives the
// raw body (the binary result block). Every other answer carries the
// envelope: application errors come back as *WireError, an envelope of
// another version as a wire_version *WireError, and transport errors
// as whatever the HTTP client produced. A body over maxRPCBody is an
// error, as is a non-2xx answer whose envelope carries no error.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	ctype := ""
	switch in := in.(type) {
	case nil:
	case []byte:
		body, ctype = bytes.NewReader(in), "application/octet-stream"
	default:
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("cluster: encoding %s %s: %w", method, path, err)
		}
		body, ctype = bytes.NewReader(raw), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := readCapped(resp.Body, maxRPCBody)
	if err != nil {
		return fmt.Errorf("cluster: reading %s %s (HTTP %d): %w", method, path, resp.StatusCode, err)
	}
	if blob, ok := out.(*[]byte); ok && resp.StatusCode/100 == 2 {
		*blob = raw
		return nil
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("cluster: decoding %s %s (HTTP %d): %w", method, path, resp.StatusCode, err)
	}
	if env.WireVersion != WireVersion {
		return &WireError{Code: CodeWireVersion,
			Message: fmt.Sprintf("peer speaks wire version %q, this build speaks %q", env.WireVersion, WireVersion)}
	}
	if env.Error != nil {
		return env.Error
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: %s %s answered HTTP %d without an error", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(env.Data, out); err != nil {
			return fmt.Errorf("cluster: decoding %s %s data: %w", method, path, err)
		}
	}
	return nil
}

// readCapped reads r to its end, refusing more than limit bytes. It
// reads one byte past the limit, so an oversize answer is an error, not
// a body silently cut to fit.
func readCapped(r io.Reader, limit int64) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("response exceeds %d bytes", limit)
	}
	return raw, nil
}

// writeWire wraps v in the versioned envelope.
func writeWire(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		writeWireError(w, http.StatusInternalServerError,
			&WireError{Code: CodeBadRequest, Message: fmt.Sprintf("encoding response: %v", err)})
		return
	}
	writeWireEnvelope(w, status, envelope{WireVersion: WireVersion, Data: raw})
}

// writeWireError wraps a wire error in the versioned envelope.
func writeWireError(w http.ResponseWriter, status int, e *WireError) {
	writeWireEnvelope(w, status, envelope{WireVersion: WireVersion, Error: e})
}

// writeBlock answers 200 with a binary body.
func writeBlock(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeWireEnvelope(w http.ResponseWriter, status int, env envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(env)
}

// settingsOptions turns resolved Settings back into an option list, so
// a worker reconstructs exactly the solver configuration the
// coordinator resolved (Apply over defaults is the identity for a
// resolved set).
func settingsOptions(st estimator.Settings) []estimator.Option {
	return []estimator.Option{
		estimator.WithMaxSubsetSize(st.MaxSubsetSize),
		estimator.WithAlwaysGoodTol(st.AlwaysGoodTol),
		estimator.WithMaxEnumPathSets(st.MaxEnumPathSets),
		estimator.WithPairsPerLink(st.PairsPerLink),
		estimator.WithGlobalPairs(st.GlobalPairs),
		estimator.WithSweeps(st.Sweeps),
		estimator.WithSeed(st.Seed),
		estimator.WithNumericalPlanRepair(st.NumericalPlanRepair),
		estimator.WithNumericalRepairMaxFrac(st.NumericalRepairMaxFrac),
	}
}

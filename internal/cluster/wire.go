// Package cluster distributes the streaming tomography service across
// processes along the correlation-set partition seam: a coordinator
// owns the public /v1/* surface and the full ingest window, workers own
// disjoint sets of partition shards (one masked window and one WAL per
// worker, a warm structural plan per shard), and the two sides speak a
// small versioned JSON-over-HTTP wire format. The block-diagonal
// structure makes the distribution exact: each shard's solve reads only
// its own paths, so the coordinator's scatter-gather merge
// (core.MergeResults) is bit-identical to a single-process sharded
// solve over the same intervals.
//
// Wire contract (version "c2"; all responses wrapped in an envelope
// carrying the version and exactly one of data/error):
//
//   - POST /c1/assign        — shard placement: topology fingerprint,
//     window size, solver settings, shard list. Idempotent; replies
//     with the worker's recovered (WAL-replayed) sequence.
//   - POST /c1/ingest        — batched ingest, keyed by the sender's
//     pre-batch sequence; the worker skips the already-applied prefix
//     (retry dedupe) and rejects gaps. Catch-up replay uses it too.
//   - POST /c1/reset         — discard the worker's window and WAL and
//     fast-forward to a base sequence (worker fell behind the
//     coordinator's retained window, or ran ahead of a recovered
//     coordinator).
//   - GET  /c1/shards/{k}/result — the shard's solved block at the
//     worker's current sequence (solved on demand, warm plans, cached
//     until the window advances).
//   - GET  /c1/status        — worker identity, fingerprint, sequence.
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
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/topology"
)

// WireVersion tags every internal-API response envelope; both sides
// reject versions they do not understand. (The URL prefix stays /c1/.)
const WireVersion = "c2"

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

// IngestRequest is POST /c1/ingest: a batch of intervals, each the
// congested path IDs in full-universe indexing, based at the sender's
// pre-batch sequence. A worker already past BaseSeq skips the overlap
// (idempotent retries); one that is behind it answers seq_gap and
// applies nothing.
type IngestRequest struct {
	BaseSeq   uint64  `json:"base_seq"`
	Intervals [][]int `json:"intervals"`
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

// WireSubset is one correlation subset of a shard's solved block.
// GoodProb is omitted (not NaN, which JSON cannot carry) when the
// subset is unidentifiable; links are full-universe IDs. encoding/json
// round-trips float64 exactly (shortest-representation encoding), so a
// decoded block is bit-identical to the worker's.
type WireSubset struct {
	Links        []int    `json:"links"`
	CorrSet      int      `json:"corr_set"`
	GoodProb     *float64 `json:"good_prob,omitempty"`
	Identifiable bool     `json:"identifiable"`
}

// ShardResultResponse is GET /c1/shards/{k}/result: the shard's solved
// block — the exported fields core.MergeResults reads — plus the
// sequence it was solved at and how the worker's warm plan served.
type ShardResultResponse struct {
	Shard   int    `json:"shard"`
	SeqHigh uint64 `json:"seq_high"`
	T       int    `json:"t"`
	core.Tier
	BuildNs  int64 `json:"build_ns,omitempty"`
	RepairNs int64 `json:"repair_ns,omitempty"`
	SolveNs  int64 `json:"solve_ns,omitempty"`

	Subsets     []WireSubset `json:"subsets"`
	PathSets    [][]int      `json:"path_sets"`
	Rank        int          `json:"rank"`
	Nullity     int          `json:"nullity"`
	ClampedRows int          `json:"clamped_rows"`
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

// encodeResult flattens a shard's solved block for the wire.
func encodeResult(shard int, seqHigh uint64, t int, res *core.Result, info estimator.SolveInfo) *ShardResultResponse {
	out := &ShardResultResponse{
		Shard:       shard,
		SeqHigh:     seqHigh,
		T:           t,
		Tier:        info.Tier,
		BuildNs:     info.BuildTime.Nanoseconds(),
		RepairNs:    info.RepairTime.Nanoseconds(),
		SolveNs:     info.SolveTime.Nanoseconds(),
		Subsets:     make([]WireSubset, len(res.Subsets)),
		PathSets:    make([][]int, len(res.PathSets)),
		Rank:        res.Rank,
		Nullity:     res.Nullity,
		ClampedRows: res.ClampedRows,
	}
	for i, sub := range res.Subsets {
		ws := WireSubset{
			Links:        sub.Links.Indices(),
			CorrSet:      sub.CorrSet,
			Identifiable: sub.Identifiable,
		}
		if !math.IsNaN(sub.GoodProb) {
			g := sub.GoodProb
			ws.GoodProb = &g
		}
		out.Subsets[i] = ws
	}
	for i, ps := range res.PathSets {
		out.PathSets[i] = ps.Indices()
	}
	return out
}

// decodeResult reconstructs the block over top's universes.
// Unidentifiable subsets get their NaN back. The block comes from
// another process, so it is refused unless every link and path index
// lies in its universe and every subset names a correlation set of top:
// bitset.Add panics on a negative index and grows a set to fit a huge
// one.
func (r *ShardResultResponse) decodeResult(top *topology.Topology) (*core.Result, error) {
	subsets := make([]core.SubsetResult, len(r.Subsets))
	for i, ws := range r.Subsets {
		if ws.CorrSet < 0 || ws.CorrSet >= len(top.CorrSets) {
			return nil, fmt.Errorf("subset %d: correlation set %d outside [0,%d)", i, ws.CorrSet, len(top.CorrSets))
		}
		links, err := indexSet(top.NumLinks(), ws.Links)
		if err != nil {
			return nil, fmt.Errorf("subset %d: link %v", i, err)
		}
		g := math.NaN()
		if ws.GoodProb != nil {
			g = *ws.GoodProb
		}
		subsets[i] = core.SubsetResult{
			Links:        links,
			CorrSet:      ws.CorrSet,
			GoodProb:     g,
			Identifiable: ws.Identifiable,
		}
	}
	pathSets := make([]*bitset.Set, len(r.PathSets))
	for i, ps := range r.PathSets {
		set, err := indexSet(top.NumPaths(), ps)
		if err != nil {
			return nil, fmt.Errorf("path set %d: path %v", i, err)
		}
		pathSets[i] = set
	}
	return core.NewShardResult(subsets, pathSets, r.Rank, r.Nullity, r.ClampedRows), nil
}

// indexSet is the set of indices over [0, n), or an error naming the
// first index outside it.
func indexSet(n int, indices []int) (*bitset.Set, error) {
	set := bitset.New(n)
	for _, i := range indices {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("%d outside universe [0,%d)", i, n)
		}
		set.Add(i)
	}
	return set, nil
}

// intervalsOf flattens a batch of congested-path sets into wire
// intervals.
func intervalsOf(batch []*bitset.Set) [][]int {
	out := make([][]int, len(batch))
	for i, set := range batch {
		out[i] = set.Indices()
	}
	return out
}

// client is one peer's view of a worker's internal API.
type client struct {
	base string // e.g. "http://127.0.0.1:9101"
	hc   *http.Client
}

// do performs one RPC: marshal in (nil means no body), decode the
// envelope, enforce the wire version, and unmarshal data into out (nil
// means discard). Application errors come back as *WireError; transport
// errors as whatever the HTTP client produced.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("cluster: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRPCBody)).Decode(&env); err != nil {
		return fmt.Errorf("cluster: decoding %s %s (HTTP %d): %w", method, path, resp.StatusCode, err)
	}
	if env.WireVersion != WireVersion {
		return &WireError{Code: CodeWireVersion,
			Message: fmt.Sprintf("peer speaks wire version %q, this build speaks %q", env.WireVersion, WireVersion)}
	}
	if env.Error != nil {
		return env.Error
	}
	if out != nil {
		if err := json.Unmarshal(env.Data, out); err != nil {
			return fmt.Errorf("cluster: decoding %s %s data: %w", method, path, err)
		}
	}
	return nil
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

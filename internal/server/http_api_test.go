package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/estimator"
)

// apiServer builds a server over the small test topology with one
// published epoch.
func apiServer(t *testing.T) (*Server, *Snapshot, http.Handler) {
	t.Helper()
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 200, SolverOpts: solverOpts()})
	t.Cleanup(s.Close)
	ingestSimulated(t, s, top, 200)
	snap := s.Recompute(nil)
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	return s, snap, s.Handler()
}

// do serves one request against the handler and returns the status and
// the decoded envelope plus raw body.
func do(t *testing.T, h http.Handler, req *http.Request) (int, Envelope, string) {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	var env Envelope
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s %s: body is not an envelope: %v\n%s", req.Method, req.URL, err, rw.Body.String())
	}
	if env.APIVersion != APIVersion {
		t.Fatalf("%s %s: api_version = %q, want %q", req.Method, req.URL, env.APIVersion, APIVersion)
	}
	return rw.Code, env, strings.TrimSpace(rw.Body.String())
}

func get(t *testing.T, h http.Handler, url string) (int, Envelope, string) {
	t.Helper()
	return do(t, h, httptest.NewRequest(http.MethodGet, url, nil))
}

// decodeData unmarshals the envelope's data payload.
func decodeData(t *testing.T, env Envelope, v any) {
	t.Helper()
	if env.Error != nil {
		t.Fatalf("unexpected error envelope: %+v", env.Error)
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		t.Fatal(err)
	}
}

// GET /v1/estimators is fully deterministic: golden-compare the whole
// payload (names sorted, default flagged, descriptions present).
func TestEstimatorsEndpointGolden(t *testing.T) {
	_, _, h := apiServer(t)
	code, env, _ := get(t, h, "/v1/estimators")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp EstimatorsResponse
	decodeData(t, env, &resp)

	wantNames := []string{
		"bayesian-correlation",
		"bayesian-independence",
		"correlation-complete",
		"correlation-complete-sharded",
		"correlation-heuristic",
		"independence",
		"sparsity",
	}
	if len(resp.Estimators) != len(wantNames) {
		t.Fatalf("got %d estimators, want %d", len(resp.Estimators), len(wantNames))
	}
	for i, info := range resp.Estimators {
		if info.Name != wantNames[i] {
			t.Fatalf("estimator %d = %q, want %q", i, info.Name, wantNames[i])
		}
		if info.Description == "" {
			t.Fatalf("%s: empty description", info.Name)
		}
		if info.Default != (info.Name == estimator.CorrelationComplete) {
			t.Fatalf("%s: default = %v", info.Name, info.Default)
		}
	}
}

// GET /v1/subsets and /v1/subsets/{id} answer from the snapshot's
// estimate with stable IDs; good_prob is present exactly for
// identifiable subsets.
func TestSubsetsEndpoint(t *testing.T) {
	_, snap, h := apiServer(t)
	code, env, _ := get(t, h, "/v1/subsets")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp SubsetsResponse
	decodeData(t, env, &resp)

	est := snap.Est
	if resp.Epoch != snap.Epoch || resp.Algorithm != estimator.CorrelationComplete ||
		resp.Total != len(est.Subsets) || len(resp.Subsets) != len(est.Subsets) {
		t.Fatalf("header fields wrong: %+v", resp)
	}
	identifiable := 0
	for i, sub := range resp.Subsets {
		want := est.Subsets[i]
		if sub.ID != i || sub.CorrSet != want.CorrSet || sub.Identifiable != want.Identifiable {
			t.Fatalf("subset %d diverges from estimate", i)
		}
		if got, wantLinks := len(sub.Links), want.Links.Count(); got != wantLinks {
			t.Fatalf("subset %d: %d links on the wire, %d in the estimate", i, got, wantLinks)
		}
		if want.Identifiable {
			identifiable++
			if sub.GoodProb == nil || *sub.GoodProb != want.GoodProb {
				t.Fatalf("subset %d: good_prob %v, want %v", i, sub.GoodProb, want.GoodProb)
			}
		} else if sub.GoodProb != nil {
			t.Fatalf("subset %d: unidentifiable but good_prob present", i)
		}
	}
	if resp.Identifiable != identifiable {
		t.Fatalf("identifiable = %d, want %d", resp.Identifiable, identifiable)
	}

	// Single-subset lookup matches the list entry.
	code, env, _ = get(t, h, "/v1/subsets/0")
	if code != http.StatusOK {
		t.Fatalf("subset 0: status %d", code)
	}
	var one SubsetResponse
	decodeData(t, env, &one)
	if one.ID != 0 || one.Identifiable != resp.Subsets[0].Identifiable {
		t.Fatalf("subset 0 lookup diverges from list: %+v", one)
	}
}

// ?algo= selects any registered estimator per request, computed over
// the same frozen snapshot window and cached per epoch.
func TestAlgoSelection(t *testing.T) {
	s, snap, h := apiServer(t)
	indep, err := estimator.New(estimator.Independence)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := indep.Estimate(context.Background(), s.Topology(), snap.Window, solverOpts()...)
	if err != nil {
		t.Fatal(err)
	}

	for _, link := range []int{0, 3} {
		code, env, _ := get(t, h, "/v1/links/"+itoa(link)+"?algo=independence")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		var lr LinkResponse
		decodeData(t, env, &lr)
		if lr.Algorithm != estimator.Independence {
			t.Fatalf("algorithm = %q", lr.Algorithm)
		}
		wantP, wantX := ref.LinkCongestProb(link)
		if lr.CongestProb != wantP || lr.Exact != wantX {
			t.Fatalf("link %d via ?algo=: (%v,%v), want (%v,%v)", link, lr.CongestProb, lr.Exact, wantP, wantX)
		}
		if lr.Epoch != snap.Epoch {
			t.Fatalf("epoch %d, want %d", lr.Epoch, snap.Epoch)
		}
	}

	// The default (no ?algo=) is the epoch solver.
	code, env, _ := get(t, h, "/v1/links/0")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var lr LinkResponse
	decodeData(t, env, &lr)
	if lr.Algorithm != estimator.CorrelationComplete {
		t.Fatalf("default algorithm = %q", lr.Algorithm)
	}

	// Subsets honor ?algo= too: a per-link-only estimator reports none.
	code, env, _ = get(t, h, "/v1/subsets?algo=independence")
	if code != http.StatusOK {
		t.Fatalf("subsets?algo=: status %d", code)
	}
	var sr SubsetsResponse
	decodeData(t, env, &sr)
	if sr.Algorithm != estimator.Independence || sr.Total != 0 {
		t.Fatalf("independence subsets: %+v", sr)
	}
}

// The error envelope carries machine-readable codes: unknown algo, bad
// subset id, and a cancelled per-request solve.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, snap, h := apiServer(t)

	expectError := func(code int, env Envelope, wantStatus int, wantCode string) {
		t.Helper()
		if code != wantStatus {
			t.Fatalf("status %d, want %d", code, wantStatus)
		}
		if env.Error == nil || env.Error.Code != wantCode {
			t.Fatalf("error = %+v, want code %q", env.Error, wantCode)
		}
		if env.Data != nil {
			t.Fatal("error envelope also carries data")
		}
	}

	// Unknown algorithm.
	code, env, _ := get(t, h, "/v1/links/0?algo=nope")
	expectError(code, env, http.StatusBadRequest, CodeUnknownAlgo)
	code, env, _ = get(t, h, "/v1/subsets?algo=nope")
	expectError(code, env, http.StatusBadRequest, CodeUnknownAlgo)

	// Bad subset ids: non-numeric and out of universe. The
	// out-of-universe message is deterministic — golden-compare it.
	code, env, _ = get(t, h, "/v1/subsets/abc")
	expectError(code, env, http.StatusBadRequest, CodeBadRequest)
	code, env, body := get(t, h, "/v1/subsets/99999")
	expectError(code, env, http.StatusNotFound, CodeUnknownSubset)
	wantBody := `{"api_version":"v1","error":{"code":"unknown_subset","message":"subset 99999 outside universe [0,` +
		itoa(len(snap.Est.Subsets)) + `) of epoch 1"}}`
	if body != wantBody {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", body, wantBody)
	}

	// Bad link id keeps its own code.
	code, env, _ = get(t, h, "/v1/links/99999")
	expectError(code, env, http.StatusNotFound, CodeUnknownLink)

	// A cancelled per-request solve (the request context is already
	// dead and sparsity is not cached) surfaces as solve_canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/links/0?algo=sparsity", nil).WithContext(ctx)
	code, env, _ = do(t, h, req)
	expectError(code, env, http.StatusServiceUnavailable, CodeSolveCanceled)

	// No snapshot yet: fresh server, no_snapshot code.
	top := testTopology(t)
	fresh := newServer(t, top, Config{SolverOpts: solverOpts()})
	t.Cleanup(fresh.Close)
	code, env, _ = get(t, fresh.Handler(), "/v1/subsets")
	expectError(code, env, http.StatusServiceUnavailable, CodeNoSnapshot)
}

func itoa(n int) string { return strconv.Itoa(n) }

// writeData frames one json.Marshal of the payload; its bytes must be
// those of encoding the Envelope, HTML escaping and newline included.
func TestWriteDataMatchesEnvelope(t *testing.T) {
	g := 0.5
	for _, v := range []any{
		HealthResponse{Status: "<ok> & " + string(rune(0x2028))},
		SubsetsResponse{Subsets: []SubsetResponse{{Links: []int{1, 2}, GoodProb: &g}}},
		nil,
	} {
		rw := httptest.NewRecorder()
		writeData(rw, http.StatusOK, v)
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := json.NewEncoder(&want).Encode(Envelope{APIVersion: APIVersion, Data: raw}); err != nil {
			t.Fatal(err)
		}
		if got := rw.Body.String(); got != want.String() {
			t.Fatalf("writeData wrote %q, want %q", got, want.String())
		}
	}
}

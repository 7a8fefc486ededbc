package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// referenceDecode is the ingest handler's decode and validation as they
// stood before the canonical scanner, kept as the differential oracle:
// encoding/json decodes the whole body, then one loop range-checks every
// index in body order. A malformed body comes back as badBody, a path
// outside the universe as the handler's bad-path message.
func referenceDecode(body []byte, numPaths int) (req ObservationsRequest, batch []*bitset.Set, badBody error, badPath string) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return req, nil, err, ""
	}
	batch = make([]*bitset.Set, len(req.Intervals))
	for i, iv := range req.Intervals {
		set := bitset.New(numPaths)
		for _, p := range iv.CongestedPaths {
			if p < 0 || p >= numPaths {
				return req, nil, nil, fmt.Sprintf("interval %d: path %d outside universe [0,%d)", i, p, numPaths)
			}
			set.Add(p)
		}
		batch[i] = set
	}
	return req, batch, nil, ""
}

// assertBatches fails unless got and want hold the same intervals.
func assertBatches(t *testing.T, got, want []*bitset.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("interval %d holds %v, want %v", i, got[i].Indices(), want[i].Indices())
		}
	}
}

// fuzzPaths is the path universe FuzzObservationsDecode validates
// against.
const fuzzPaths = 40

// FuzzObservationsDecode runs arbitrary POST /v1/observations bodies
// through decodeObservations and referenceDecode. The two must agree on
// accept or reject, on the rejection class (malformed body or path
// outside the universe) and its message, and on the batch. The
// canonical re-encoding of every decodable body must take the scanner
// and agree too, so the differential cannot pass only because every
// body fell back to encoding/json.
func FuzzObservationsDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var recorded ObservationsRequest
	for i := 0; i < 6; i++ {
		var iv IntervalObs
		for p := 0; p < fuzzPaths; p++ {
			if rng.Float64() < 0.25 {
				iv.CongestedPaths = append(iv.CongestedPaths, p)
			}
		}
		recorded.Intervals = append(recorded.Intervals, iv)
	}
	raw, err := json.Marshal(recorded)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(raw),
		// Canonical, then with whitespace around every token.
		`{"intervals":[{"congested_paths":[0,1,39]},{"congested_paths":[]},{"congested_paths":null}]}`,
		" \t\r\n{ \"intervals\" :\n[ { \"congested_paths\" : [ 3 , 4 ]\t} ,{\"congested_paths\":[ ]} ] }\n",
		// null and [] at every level.
		`null`,
		`{"intervals":null}`,
		`{"intervals":[]}`,
		`{"intervals":[null]}`,
		`{"intervals":[{"congested_paths":[null]}]}`,
		`{}`,
		// Numbers.
		`{"intervals":[{"congested_paths":[-0]}]}`,
		`{"intervals":[{"congested_paths":[1.0]}]}`,
		`{"intervals":[{"congested_paths":[1e2]}]}`,
		`{"intervals":[{"congested_paths":[01]}]}`,
		`{"intervals":[{"congested_paths":[-]}]}`,
		`{"intervals":[{"congested_paths":[123456789012345678]}]}`,
		`{"intervals":[{"congested_paths":[-123456789012345678]}]}`,
		`{"intervals":[{"congested_paths":[1234567890123456789]}]}`,
		`{"intervals":[{"congested_paths":[12345678901234567890]}]}`,
		// Keys encoding/json matches and the grammar does not.
		`{"intervals":[{"congested_paths":[1]}],"extra":true}`,
		`{"intervals":[{"congested_paths":[1],"extra":{}}]}`,
		`{"Intervals":[{"congested_paths":[1]}]}`,
		`{"` + `\` + `u0069ntervals":[{"congested_paths":[2]}]}`, // an escaped key
		`{"intervals":[{"congeſted_paths":[3]}]}`,
		`{"intervals":[{"congested_paths":[1]}],"intervals":[{"congested_paths":[2]}]}`,
		`{"intervals":[{"congested_paths":[1],"congested_paths":[2]}]}`,
		// Trailing bytes, truncation.
		`{"intervals":[{"congested_paths":[1]}]} trailing garbage`,
		`{"intervals":[]}}`,
		`{"intervals":[{"congested_paths":[1,`,
		`{"intervals":[{"congested_paths":[1]}]`,
		``,
		// Paths outside the universe: canonical, non-canonical, and
		// followed by a malformed tail, which wins.
		`{"intervals":[{"congested_paths":[1]},{"congested_paths":[2,-3,40]}]}`,
		`{"intervals":[{"congested_paths":[40]}],"Extra":1}`,
		`{"intervals":[{"congested_paths":[99]},{"congested_paths":[1,]}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, want, wantBody, wantPath := referenceDecode(body, fuzzPaths)
		got, err := decodeObservations(body, fuzzPaths)
		var bad *badPathError
		switch {
		case wantBody != nil:
			if err == nil || errors.As(err, &bad) || err.Error() != "decoding body: "+wantBody.Error() {
				t.Fatalf("malformed body (%v) answered %v", wantBody, err)
			}
			return
		case wantPath != "":
			if !errors.As(err, &bad) || err.Error() != wantPath {
				t.Fatalf("body with %q answered %v", wantPath, err)
			}
		default:
			if err != nil {
				t.Fatalf("valid body refused: %v", err)
			}
			assertBatches(t, got, want)
		}

		const maxCanonical = 999_999_999_999_999_999 // 18 digits
		for _, iv := range req.Intervals {
			for _, p := range iv.CongestedPaths {
				if p < -maxCanonical || p > maxCanonical {
					return // outside the grammar even when re-encoded
				}
			}
		}
		canonical, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		batch, bad, ok := scanObservations(canonical, fuzzPaths)
		switch {
		case !ok:
			t.Fatalf("the canonical re-encoding %s left the scanner", canonical)
		case wantPath != "":
			if bad == nil || bad.Error() != wantPath {
				t.Fatalf("canonical %s: bad path %v, want %q", canonical, bad, wantPath)
			}
		case bad != nil:
			t.Fatalf("canonical %s: spurious bad path %v", canonical, bad)
		default:
			assertBatches(t, batch, want)
		}
	})
}

// A body outside the canonical shape (decoded by encoding/json) and its
// canonical re-encoding (decoded by the scanner) get the same status
// and the same envelope, ingest seq included, and leave the same window.
func TestIngestNonCanonicalBody(t *testing.T) {
	top := testTopology(t)
	n := top.NumPaths()
	post := func(h http.Handler, body []byte) (int, string) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(body)))
		return rw.Code, rw.Body.String()
	}
	a := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts()})
	defer a.Close()
	b := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts()})
	defer b.Close()
	ha, hb := a.Handler(), b.Handler()
	for _, body := range []string{
		`{"Intervals":[{"congested_paths":[0,3]},{"congested_paths":null}],"extra":1}`,
		`{"intervals":[{"congeſted_paths":[1, 2]},{}]}`,
		`{"` + `\` + `u0069ntervals":[{"congested_paths":[8]}]}`,
		`{"intervals":[{"congested_paths":[5],"congested_paths":[4]}]} trailing`,
		`{"intervals":[{"congested_paths":[5]}],"intervals":[{"congested_paths":[6]},{"congested_paths":[7]}]}`,
		fmt.Sprintf(`{"Intervals":[{"congested_paths":[1]},{"congested_paths":[%d]}]}`, n),
	} {
		var req ObservationsRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		canonical, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := scanObservations([]byte(body), n); ok {
			t.Fatalf("%s is in the canonical shape", body)
		}
		if _, _, ok := scanObservations(canonical, n); !ok {
			t.Fatalf("re-encoding %s is not in the canonical shape", canonical)
		}
		codeA, envA := post(ha, []byte(body))
		codeB, envB := post(hb, canonical)
		if codeA != codeB || envA != envB {
			t.Fatalf("%s answered %d %s\ncanonical %s answered %d %s", body, codeA, envA, canonical, codeB, envB)
		}
	}
	wa, wb := a.FreezeWindow(), b.FreezeWindow()
	if wa.Seq() == 0 || wa.Seq() != wb.Seq() || wa.T() != wb.T() {
		t.Fatalf("windows at seq %d / %d, T %d / %d", wa.Seq(), wb.Seq(), wa.T(), wb.T())
	}
	for i := 0; i < wa.T(); i++ {
		if !wa.CongestedAt(i).Equal(wb.CongestedAt(i)) {
			t.Fatalf("row %d: %v != %v", i, wa.CongestedAt(i).Indices(), wb.CongestedAt(i).Indices())
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/bitset"
)

// badPathError refuses an ingest batch that names a path outside the
// topology's universe: the first such (interval, path) in body order.
type badPathError struct {
	interval, path, numPaths int
}

func (e *badPathError) Error() string {
	return fmt.Sprintf("interval %d: path %d outside universe [0,%d)", e.interval, e.path, e.numPaths)
}

// decodeObservations turns a POST /v1/observations body into one
// congested-path set per interval, checking every path index against
// the universe [0, numPaths). A batch naming a path outside it is
// refused with a *badPathError; any other error is a malformed body.
//
// A body in the canonical shape — what json.Marshal(ObservationsRequest)
// emits, plus any JSON whitespace — is decoded and validated in one
// pass by scanObservations. Every other body (unknown, escaped,
// case-folded or duplicate keys, floats, overflowing numbers, syntax
// errors) goes to encoding/json, the decoder of record: the two agree on
// every canonical body, so the accepted language and its meaning are
// encoding/json's.
func decodeObservations(body []byte, numPaths int) ([]*bitset.Set, error) {
	if batch, bad, ok := scanObservations(body, numPaths); ok {
		if bad != nil {
			return nil, bad
		}
		return batch, nil
	}
	var req ObservationsRequest
	// A Decoder, not Unmarshal: bytes after the top-level value are
	// ignored, as they are for the canonical shape.
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	batch := make([]*bitset.Set, len(req.Intervals))
	for i, iv := range req.Intervals {
		set := bitset.New(numPaths)
		for _, p := range iv.CongestedPaths {
			if p < 0 || p >= numPaths {
				return nil, &badPathError{interval: i, path: p, numPaths: numPaths}
			}
			set.Add(p)
		}
		batch[i] = set
	}
	return batch, nil
}

// maxCanonicalDigits bounds a canonical path index: 18 decimal digits
// always fit an int64, so the scanner never has to detect overflow.
const maxCanonicalDigits = 18

// scanObservations decodes a body of the canonical grammar
//
//	{"intervals": null | [ {"congested_paths": null | [int, …]}, … ]}
//
// with exact, unescaped keys, one key per object, any JSON whitespace
// between tokens, and integers of at most 18 digits with no fraction,
// exponent or leading zero (-0 is allowed, as encoding/json allows it).
// Bytes after the closing brace are ignored, as json.Decoder ignores
// them. ok is false as soon as the body leaves the grammar. Each index
// is range-checked as it is read; bad is the first one outside
// [0, numPaths), returned only with a body that parsed to its end, so a
// malformed tail is still reported as a malformed body.
func scanObservations(body []byte, numPaths int) (batch []*bitset.Set, bad *badPathError, ok bool) {
	s := scanner{b: body}
	if !s.byte('{') || !s.token(`"intervals"`) || !s.byte(':') {
		return nil, nil, false
	}
	if !s.token("null") {
		if !s.byte('[') {
			return nil, nil, false
		}
		if !s.byte(']') {
			for {
				set, ok := s.interval(len(batch), numPaths, &bad)
				if !ok {
					return nil, nil, false
				}
				batch = append(batch, set)
				if s.byte(']') {
					break
				}
				if !s.byte(',') {
					return nil, nil, false
				}
			}
		}
	}
	if !s.byte('}') {
		return nil, nil, false
	}
	return batch, bad, true
}

// scanner is a cursor over a canonical ingest body.
type scanner struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte consumes c after optional whitespace.
func (s *scanner) byte(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// token consumes tok after optional whitespace.
func (s *scanner) token(tok string) bool {
	s.skip()
	if len(s.b)-s.i >= len(tok) && string(s.b[s.i:s.i+len(tok)]) == tok {
		s.i += len(tok)
		return true
	}
	return false
}

// interval reads {"congested_paths": null | [int, …]} as the set of its
// in-range indices, recording the body's first out-of-range index in
// *bad.
func (s *scanner) interval(i, numPaths int, bad **badPathError) (*bitset.Set, bool) {
	if !s.byte('{') || !s.token(`"congested_paths"`) || !s.byte(':') {
		return nil, false
	}
	set := bitset.New(numPaths)
	if !s.token("null") {
		if !s.byte('[') {
			return nil, false
		}
		if !s.byte(']') {
			for {
				p, ok := s.int()
				if !ok {
					return nil, false
				}
				if p >= 0 && p < numPaths {
					set.Add(p)
				} else if *bad == nil {
					*bad = &badPathError{interval: i, path: p, numPaths: numPaths}
				}
				if s.byte(']') {
					break
				}
				if !s.byte(',') {
					return nil, false
				}
			}
		}
	}
	if !s.byte('}') {
		return nil, false
	}
	return set, true
}

// int reads a canonical integer, -?(0|[1-9][0-9]{0,17}), that an int
// holds on this platform.
func (s *scanner) int() (int, bool) {
	s.skip()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	if n == 0 || n > maxCanonicalDigits || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false // a 32-bit int: encoding/json reports the overflow
	}
	return int(v), true
}

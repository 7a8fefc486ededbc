package main

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/estimator"
	"repro/internal/server"
	"repro/internal/stream"
)

// finalWindow rebuilds, offline, the sliding window the daemon must
// hold after `batches` measured batches: the last spec.window
// intervals it was sent, in order.
func (ld *load) finalWindow(batches int) *stream.Window {
	win := stream.NewWindow(ld.top.NumPaths(), ld.spec.window)
	total := ld.spec.window + batches*ld.spec.batch
	for i := total - ld.spec.window; i < total; i++ {
		win.Add(ld.paths(i))
	}
	return win
}

// answer is one link query the daemon served during the measured
// window: what it said about which link, from which snapshot.
type answer struct {
	link    int
	seqHigh uint64
	prob    float64
}

// servedAbsErr is the accuracy metric: the mean, over every link
// answer served during the measured window, of |P̂(link congested) −
// the simulator's ground-truth congestion frequency over exactly the
// intervals of the answering snapshot's window|. Answers arrive in
// snapshot order, so the truth window slides along with them.
func (ld *load) servedAbsErr(answers []answer) float64 {
	w := ld.spec.window
	counts := make([]int, ld.top.NumLinks())
	at := 0 // counts cover sent intervals [at−w, at)
	slide := func(to int) {
		for ; at < to; at++ {
			ld.links(at).ForEach(func(l int) bool { counts[l]++; return true })
			if at >= w {
				ld.links(at - w).ForEach(func(l int) bool { counts[l]--; return true })
			}
		}
	}
	sum, n := 0.0, 0
	for _, a := range answers {
		if int(a.seqHigh) < max(at, w) {
			continue // never before the prefill, never backwards
		}
		slide(int(a.seqHigh))
		sum += math.Abs(a.prob - float64(counts[a.link])/float64(w))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// checkTol is how far a served probability may sit from the offline
// reference: the daemon's warm and repaired plans are bit-identical to
// a cold solve, so this only absorbs the JSON round trip.
const checkTol = 1e-6

// verify compares what the daemon serves after the last batch with an
// offline run of the same estimator over the rebuilt final window. It
// returns the number of checks attempted and the mismatches, each a
// failed operation.
func verify(ld *load, rd *httpc, batches int) (checks int, problems []string, err error) {
	bad := func(format string, args ...any) {
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		} else if len(problems) == 10 {
			problems = append(problems, "…")
		}
	}
	est, err := estimator.New(ld.spec.algo)
	if err != nil {
		return 0, nil, err
	}
	win := ld.finalWindow(batches)
	ref, err := est.Estimate(context.Background(), ld.top, win, solverOpts()...)
	if err != nil {
		return 0, nil, fmt.Errorf("offline reference estimate: %w", err)
	}
	wantSeq := uint64(ld.spec.window + batches*ld.spec.batch)

	var subs server.SubsetsResponse
	if err := rd.getData("/v1/subsets", &subs); err != nil {
		return 0, nil, err
	}
	checks++
	if subs.SeqHigh != wantSeq {
		bad("subsets answered from seq_high %d, want %d (every interval sent)", subs.SeqHigh, wantSeq)
	}
	checks++
	if len(subs.Subsets) != len(ref.Subsets) {
		bad("daemon serves %d subsets, offline reference has %d", len(subs.Subsets), len(ref.Subsets))
	} else {
		for i, got := range subs.Subsets {
			want := ref.Subsets[i]
			checks++
			switch {
			case !equalInts(got.Links, want.Links.Indices()):
				bad("subset %d covers links %v, reference %v", i, got.Links, want.Links.Indices())
			case got.Identifiable != want.Identifiable:
				bad("subset %d identifiable=%v, reference %v", i, got.Identifiable, want.Identifiable)
			case want.Identifiable && (got.GoodProb == nil || math.Abs(*got.GoodProb-want.GoodProb) > checkTol):
				bad("subset %d good probability %v, reference %v", i, got.GoodProb, want.GoodProb)
			}
		}
	}

	for l := 0; l < ld.top.NumLinks(); l++ {
		var lr server.LinkResponse
		if err := rd.getData("/v1/links/"+strconv.Itoa(l), &lr); err != nil {
			return checks, problems, err
		}
		checks++
		if lr.SeqHigh != wantSeq {
			bad("link %d answered from seq_high %d, want %d", l, lr.SeqHigh, wantSeq)
		} else if math.Abs(lr.CongestProb-ref.LinkProb[l]) > checkTol {
			bad("link %d congestion probability %v, reference %v", l, lr.CongestProb, ref.LinkProb[l])
		}
	}
	return checks, problems, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package stream

import (
	"errors"
	"testing"

	"repro/internal/bitset"
)

// captureLog records AppendBatch calls and can inject failures.
type captureLog struct {
	calls   [][][]int // one entry per AppendBatch: the batch's index slices
	seq     uint64
	failErr error
}

func (l *captureLog) AppendBatch(batch []*bitset.Set) (uint64, error) {
	if l.failErr != nil {
		return l.seq, l.failErr
	}
	rec := make([][]int, len(batch))
	for i, s := range batch {
		rec[i] = s.Indices()
	}
	l.calls = append(l.calls, rec)
	l.seq += uint64(len(batch))
	return l.seq, nil
}

func obs(paths ...int) *bitset.Set { return bitset.FromIndices(8, paths...) }

func TestWindowAddBatchLogsBeforeApply(t *testing.T) {
	w := NewWindow(8, 4)
	log := &captureLog{}
	w.SetLog(log)
	seq, err := w.AddBatch([]*bitset.Set{obs(1), obs(2, 3)})
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if seq != 2 || w.Seq() != 2 || w.T() != 2 {
		t.Fatalf("seq=%d w.Seq=%d T=%d, want 2/2/2", seq, w.Seq(), w.T())
	}
	if len(log.calls) != 1 || len(log.calls[0]) != 2 {
		t.Fatalf("log captured %v, want one 2-interval record", log.calls)
	}
	if got := log.calls[0][1]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("logged second interval %v, want [2 3]", got)
	}
}

func TestWindowAddBatchLogErrorLeavesWindowUnchanged(t *testing.T) {
	w := NewWindow(8, 4)
	if _, err := w.AddBatch([]*bitset.Set{obs(0)}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	w.SetLog(&captureLog{failErr: boom})
	seq, err := w.AddBatch([]*bitset.Set{obs(1), obs(2)})
	if !errors.Is(err, boom) {
		t.Fatalf("AddBatch error = %v, want injected", err)
	}
	if seq != 1 || w.Seq() != 1 || w.T() != 1 {
		t.Fatalf("window advanced past failed log: seq=%d T=%d", w.Seq(), w.T())
	}
	if w.CongestedFraction(1) != 0 {
		t.Fatal("rejected batch leaked into the window")
	}
}

// Add is the replay path: it must never touch the log.
func TestWindowAddBypassesLog(t *testing.T) {
	w := NewWindow(8, 4)
	log := &captureLog{}
	w.SetLog(log)
	w.Add(obs(1))
	if len(log.calls) != 0 {
		t.Fatalf("raw Add logged %v", log.calls)
	}
	if w.Seq() != 1 {
		t.Fatalf("Seq = %d, want 1", w.Seq())
	}
}

// A window fast-forwarded to a recovered base sequence lays out
// intervals bit-identically to one grown from zero: ring positions
// are seq mod ringBits, independent of the base.
func TestResetSeqEquivalence(t *testing.T) {
	const numPaths, capacity = 8, 5
	const base = uint64(12345)
	a := NewWindow(numPaths, capacity)
	b := NewWindow(numPaths, capacity)
	b.ResetSeq(base)
	sets := []*bitset.Set{
		obs(0, 1), obs(2), obs(), obs(1, 3, 5), obs(7),
		obs(0), obs(4, 6), obs(2, 2), obs(5),
	}
	for _, s := range sets {
		a.Add(s)
		b.Add(s)
	}
	if b.Seq() != base+uint64(len(sets)) {
		t.Fatalf("b.Seq = %d", b.Seq())
	}
	if a.T() != b.T() {
		t.Fatalf("T mismatch: %d vs %d", a.T(), b.T())
	}
	probe := []*bitset.Set{obs(0), obs(1, 3), obs(5, 7), obs(0, 1, 2, 3, 4, 5, 6, 7)}
	for _, q := range probe {
		if ga, gb := a.GoodCount(q), b.GoodCount(q); ga != gb {
			t.Fatalf("GoodCount(%v): %d vs %d", q.Indices(), ga, gb)
		}
		if ca, cb := a.AllCongestedCount(q), b.AllCongestedCount(q); ca != cb {
			t.Fatalf("AllCongestedCount(%v): %d vs %d", q.Indices(), ca, cb)
		}
	}
	for t2 := 0; t2 < a.T(); t2++ {
		if !a.CongestedAt(t2).Equal(b.CongestedAt(t2)) {
			t.Fatalf("row %d differs", t2)
		}
	}
}

func TestResetSeqPanicsOnNonEmpty(t *testing.T) {
	w := NewWindow(8, 4)
	w.Add(obs(1))
	defer func() {
		if recover() == nil {
			t.Fatal("ResetSeq on a written window did not panic")
		}
	}()
	w.ResetSeq(7)
}

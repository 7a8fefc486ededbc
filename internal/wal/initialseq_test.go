package wal_test

import (
	"reflect"
	"testing"

	"repro/internal/wal"
)

// InitialSeq re-bases an empty log (a cluster worker reset mid-stream
// must keep numbering in the coordinator's sequence space), persists
// across reopen, and never overrides sequences recovered from disk.
func TestInitialSeqRebase(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, wal.Options{Dir: dir, InitialSeq: 42})
	rec := w.Recovered()
	if rec.Records != 0 || rec.FirstSeq != 42 || rec.LastSeq != 42 {
		t.Fatalf("re-based empty log reports %+v, want first/last 42", rec)
	}
	batch := mkBatch([]int{1, 5})
	if got, err := w.AppendBatch(batch); err != nil || got != 43 {
		t.Fatalf("append after re-base returned (%d, %v), want 43", got, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The re-based numbering is durable: a plain reopen recovers it.
	w2 := openT(t, wal.Options{Dir: dir})
	rec = w2.Recovered()
	if rec.Records != 1 || rec.FirstSeq != 42 || rec.LastSeq != 43 {
		t.Fatalf("reopen recovered %+v, want one record at base 42", rec)
	}
	want := []replayed{{42, flatten(batch)}}
	if got := replayAll(t, w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after re-base:\n got %v\nwant %v", got, want)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// A conflicting InitialSeq on a non-empty log is ignored: recovery
	// wins, so a stale reset request cannot renumber real data.
	w3 := openT(t, wal.Options{Dir: dir, InitialSeq: 7})
	defer w3.Close()
	rec = w3.Recovered()
	if rec.FirstSeq != 42 || rec.LastSeq != 43 {
		t.Fatalf("InitialSeq overrode recovery: %+v", rec)
	}
}

// A re-based log that is closed before its first append (a worker reset
// and then restarted) keeps its base: reopening without InitialSeq
// resumes at it, and the next record is numbered in the same sequence
// space, so a later recovery does not find it at odds with its
// segment's name.
func TestInitialSeqSurvivesEmptyReopen(t *testing.T) {
	dir := t.TempDir()
	if err := openT(t, wal.Options{Dir: dir, InitialSeq: 42}).Close(); err != nil {
		t.Fatal(err)
	}
	w := openT(t, wal.Options{Dir: dir})
	if rec := w.Recovered(); rec.Records != 0 || rec.FirstSeq != 42 || rec.LastSeq != 42 {
		t.Fatalf("empty re-based log reopened as %+v, want first/last 42", rec)
	}
	if got, err := w.AppendBatch(mkBatch([]int{3})); err != nil || got != 43 {
		t.Fatalf("append returned (%d, %v), want 43", got, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openT(t, wal.Options{Dir: dir})
	defer w2.Close()
	if rec := w2.Recovered(); rec.Records != 1 || rec.FirstSeq != 42 || rec.LastSeq != 43 {
		t.Fatalf("reopen recovered %+v, want one record at base 42", rec)
	}
}

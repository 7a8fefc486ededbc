package wal_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/wal"
)

// segmentOf records batches through a real log and returns its one
// segment file's bytes.
func segmentOf(tb testing.TB, batches ...[]*bitset.Set) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncOff})
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range batches {
		if _, err := w.AppendBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "0000000000000000.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// batchOf decodes fuzz bytes into a batch: each byte is a path index,
// 0xff ends an interval.
func batchOf(raw []byte) []*bitset.Set {
	var batch []*bitset.Set
	cur := bitset.New(0)
	for _, b := range raw {
		if b == 0xff {
			batch = append(batch, cur)
			cur = bitset.New(0)
			continue
		}
		cur.Add(int(b))
	}
	return append(batch, cur)
}

// FuzzWALSegment hands recovery arbitrary bytes as the log's only
// segment: Open either recovers or fails with ErrCorrupt, never panics.
// A recovered log then appends a batch built from the second input,
// and a reopen must replay the recovered records followed by exactly
// that batch — decoding an encoded record gives back the same batch.
func FuzzWALSegment(f *testing.F) {
	good := segmentOf(f, mkBatch([]int{0, 3, 17}), mkBatch([]int{5}, []int{}, []int{1, 2, 3}))
	corrupt := append([]byte(nil), good...)
	corrupt[len(wal.Magic())+wal.FrameHeaderSize] ^= 0xff
	f.Add([]byte{}, []byte{1, 2, 0xff, 7})
	f.Add(wal.Magic(), []byte{0xff})
	f.Add(good, []byte{9})
	f.Add(good[:len(good)-3], []byte{})
	f.Add(corrupt, []byte{4, 4})
	f.Fuzz(func(t *testing.T, seg, rawBatch []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000000.wal"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := wal.Options{Dir: dir, Policy: wal.SyncOff}
		w, err := wal.Open(opts)
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Open failed with %v, want recovery or ErrCorrupt", err)
			}
			return
		}
		want := replayAll(t, w)
		batch := batchOf(rawBatch)
		want = append(want, replayed{w.SeqHigh(), flatten(batch)})
		if _, err := w.AppendBatch(batch); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer w2.Close()
		if got := replayAll(t, w2); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after append:\n got %v\nwant %v", got, want)
		}
	})
}

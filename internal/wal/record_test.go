package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/wal"
)

// frame wraps a raw payload in a record frame with a valid checksum,
// so a test can hand the parser payloads AppendRecord never writes.
func frame(payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(rec, payload...)
}

// payload lays out u64 base | u32 n followed by the given u32 words.
func payload(base uint64, n uint32, words ...uint32) []byte {
	p := binary.LittleEndian.AppendUint64(nil, base)
	p = binary.LittleEndian.AppendUint32(p, n)
	for _, w := range words {
		p = binary.LittleEndian.AppendUint32(p, w)
	}
	return p
}

// AppendRecord and ParseRecord are inverses, AppendRecord leaves what
// dst already held alone, and ParseRecord refuses every record that is
// not exactly one canonical frame over the universe.
func TestRecordCodec(t *testing.T) {
	batch := mkBatch([]int{0, 3, 17}, []int{}, []int{63})
	rec := wal.AppendRecord(nil, 41, batch)
	if len(rec) != recordSize(batch) {
		t.Fatalf("record is %d bytes, want %d", len(rec), recordSize(batch))
	}
	base, got, err := wal.ParseRecord(rec, 64)
	if err != nil || base != 41 || !reflect.DeepEqual(flatten(got), flatten(batch)) {
		t.Fatalf("round trip: base %d batch %v err %v", base, flatten(got), err)
	}
	prefixed := wal.AppendRecord([]byte("head"), 41, batch)
	if string(prefixed[:4]) != "head" || !bytes.Equal(prefixed[4:], rec) {
		t.Fatal("AppendRecord does not append after what dst holds")
	}

	badCRC := bytes.Clone(rec)
	badCRC[len(badCRC)-1] ^= 1
	for _, c := range []struct {
		name     string
		rec      []byte
		numPaths int
		want     string
	}{
		{"empty", nil, 64, "shorter than"},
		{"trailing byte", append(bytes.Clone(rec), 0), 64, "does not match"},
		{"truncated", rec[:len(rec)-4], 64, "does not match"},
		{"bad checksum", badCRC, 64, "checksum"},
		{"outside universe", rec, 63, "path 63 outside universe [0,63)"},
		{"descending", frame(payload(0, 1, 2, 5, 4)), 64, "path 4 after 5"},
		{"duplicate", frame(payload(0, 1, 2, 5, 5)), 64, "path 5 after 5"},
		{"count overruns", frame(payload(0, 1, 3, 1, 2)), 64, "overrun"},
		{"missing interval", frame(payload(0, 2, 1, 7)), 64, "ends before its count"},
		{"extra bytes", frame(payload(0, 1, 1, 7, 9)), 64, "after the last interval"},
	} {
		if _, _, err := wal.ParseRecord(c.rec, c.numPaths); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// A 28-byte record with a valid checksum naming path 0xFFFFFFF0 used to
// replay into a 512 MiB set, and a few such intervals ran the daemon
// out of memory at startup. Restore bounds every index by the window's
// path universe: the log is refused as corrupt, naming the segment, the
// record and the index, before any set is sized by it.
func TestRestoreRejectsPathOutsideUniverse(t *testing.T) {
	rec := frame(payload(0, 1, 1, 0xFFFFFFF0))
	if len(rec) != 28 {
		t.Fatalf("record is %d bytes, want 28", len(rec))
	}
	dir := t.TempDir()
	seg := "0000000000000000.wal"
	if err := os.WriteFile(filepath.Join(dir, seg), append(wal.Magic(), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := wal.Restore(wal.Options{Dir: dir, Policy: wal.SyncOff}, stream.NewWindow(150, 16), slog.New(slog.NewTextHandler(io.Discard, nil)))
	runtime.ReadMemStats(&after)
	if err == nil {
		w.Close()
		t.Fatal("Restore accepted a log naming path 4294967280 in a 150-path universe")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Restore failed with %v, want ErrCorrupt", err)
	}
	for _, want := range []string{seg, "record 0", "4294967280"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("refusing the record allocated %d bytes", grew)
	}
}

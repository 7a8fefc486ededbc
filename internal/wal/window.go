package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"

	"repro/internal/bitset"
	"repro/internal/stream"
)

// Restore opens (or recovers) the log described by opts and rebuilds
// win from it — the one recovery sequence of every durable window. The
// empty win is fast-forwarded to the log's first retained sequence
// (InitialSeq for an empty re-based log), every surviving record is
// replayed through the raw Add path (which never re-logs), and only
// then is the log attached, so subsequent AddBatch calls log before
// applying. A log the scan cannot vouch for (corruption before the torn
// tail), or one naming a path outside win's universe, fails here with
// ErrCorrupt rather than yielding a window over silently dropped data.
// What recovery found is logged to logger.
func Restore(opts Options, win *stream.Window, logger *slog.Logger) (*WAL, error) {
	w, err := Open(opts)
	if err != nil {
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	rec := w.Recovered()
	win.ResetSeq(rec.FirstSeq)
	if err := w.replay(win.NumPaths(), func(_ uint64, batch []*bitset.Set) error {
		for _, obs := range batch {
			win.Add(obs)
		}
		return nil
	}); err != nil {
		w.Close()
		return nil, fmt.Errorf("replaying WAL: %w", err)
	}
	win.SetLog(w)
	logger.Info("wal recovered",
		"dir", opts.Dir,
		"records", rec.Records,
		"intervals", rec.Intervals,
		"first_seq", rec.FirstSeq,
		"last_seq", rec.LastSeq,
		"truncated_bytes", rec.TruncatedBytes)
	return w, nil
}

// Remove deletes every segment of the closed log in opts.Dir, leaving
// the directory and any other files in it alone. A missing directory
// is an empty log.
func Remove(opts Options) error {
	opts = opts.withDefaults()
	entries, err := opts.FS.ReadDir(opts.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", opts.Dir, err)
	}
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			if err := opts.FS.Remove(filepath.Join(opts.Dir, e.Name())); err != nil {
				return fmt.Errorf("wal: removing %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

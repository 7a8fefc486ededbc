package stream

import "repro/internal/bitset"

// BatchLog is the durability hook of the ingest path: a write-ahead
// log that persists an observation batch before it is applied to the
// window. *wal.WAL implements it; the interface lives here so stream
// does not import the wal package.
//
// AppendBatch must persist the batch as one atomic record and return
// the sequence number after it (base seq + len(batch)). An error means
// nothing may be applied: the caller drops the batch so the store never
// runs ahead of the log.
type BatchLog interface {
	AppendBatch(batch []*bitset.Set) (uint64, error)
}

// SetLog attaches a write-ahead log to the window. Every subsequent
// AddBatch logs before applying; Add stays raw (it is the replay path,
// which must not re-log recovered records). Attach the log only after
// replay, and only while no ingest is in flight.
func (w *Window) SetLog(l BatchLog) { w.log = l }

// AddBatch appends a batch of intervals, logging it first when a log
// is attached. On log failure nothing is applied and the pre-batch
// sequence is returned with the error: the window never runs ahead of
// the durable log.
func (w *Window) AddBatch(batch []*bitset.Set) (uint64, error) {
	if w.log != nil {
		if _, err := w.log.AppendBatch(batch); err != nil {
			return w.seq, err
		}
	}
	for _, congested := range batch {
		w.Add(congested)
	}
	return w.seq, nil
}

// ResetSeq fast-forwards an empty window to sequence number seq, so a
// store rebuilt from a pruned log resumes at the log's first retained
// record. Ring positions are seq mod ringBits, so a window based at any
// seq lays out intervals bit-identically to one grown from zero. Panics
// if the window has ever been written.
func (w *Window) ResetSeq(seq uint64) {
	if w.seq != 0 || w.count != 0 {
		panic("stream: ResetSeq on a non-empty window")
	}
	if w.readOnly {
		panic("stream: ResetSeq on a frozen window")
	}
	w.seq, w.frozen = seq, nil
}

package main

import (
	"sync"
	"time"

	"abyss1000/abyss"
)

// countingSink is the log device of the serve-durable workload. It counts
// writes, bytes and syncs, keeps the time of every Sync, and then either
// discards the bytes (measured rounds: there is no device, so nothing
// here measures a disk, and memory does not grow with speed) or hands
// them to a retaining sink (the recovery check). The flush policy is
// therefore "acknowledge after Sync returns; Sync is free": what the
// workload measures is the WAL's group-commit machinery, not storage.
type countingSink struct {
	mu     sync.Mutex
	under  abyss.LogSink // nil discards
	epoch  time.Time
	rec    *recorder // nil unless traced
	writes uint64
	bytes  uint64
	syncs  []int64 // ns since epoch of every Sync
}

// syncCap preallocates the Sync log for one round (the default 100 µs
// group window cannot sync more often than 10 000 times a second).
const syncCap = 1 << 16

func newCountingSink(under abyss.LogSink, epoch time.Time, ts *traceSet) *countingSink {
	s := &countingSink{under: under, epoch: epoch, syncs: make([]int64, 0, syncCap)}
	if ts != nil {
		s.rec = ts.newRecorder(2 * syncCap)
	}
	return s
}

// Write implements abyss.LogSink.
func (s *countingSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := int64(time.Since(s.epoch))
	s.writes++
	s.bytes += uint64(len(p))
	n, err := len(p), error(nil)
	if s.under != nil {
		n, err = s.under.Write(p)
	}
	if s.rec != nil {
		s.rec.add(spanWrite, 0, 0, t0, int64(time.Since(s.epoch)))
	}
	return n, err
}

// Sync implements abyss.LogSink.
func (s *countingSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := int64(time.Since(s.epoch))
	s.syncs = append(s.syncs, t0)
	var err error
	if s.under != nil {
		err = s.under.Sync()
	}
	if s.rec != nil {
		s.rec.add(spanSync, 0, 0, t0, int64(time.Since(s.epoch)))
	}
	return err
}

// Close implements abyss.LogSink.
func (s *countingSink) Close() error {
	if s.under != nil {
		return s.under.Close()
	}
	return nil
}

// snapshot returns the counters; call it once the server has shut down.
func (s *countingSink) snapshot() (writes, bytes uint64, syncs []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.bytes, s.syncs
}

package wal

import (
	"errors"
	"os"
	"sync"
)

// Sink is the byte-level destination of the log stream. Write appends;
// Sync makes everything written so far durable. Implementations must
// tolerate Write/Sync after a failure by keeping returning the error
// (sticky), because group commit retries nothing — a failed log is a
// crashed log. Write must not retain p: the writer reuses the buffer for
// a later group once Write and Sync have returned.
type Sink interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FileSink appends to a real file and fsyncs on Sync — the native
// runtime's durable backend.
type FileSink struct {
	f *os.File
}

// CreateFile creates (truncating) a file-backed sink and writes the
// stream magic.
func CreateFile(path string) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(Magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return &FileSink{f: f}, nil
}

// Write implements Sink.
func (s *FileSink) Write(p []byte) (int, error) { return s.f.Write(p) }

// Sync implements Sink with a real fsync.
func (s *FileSink) Sync() error { return s.f.Sync() }

// Close implements Sink.
func (s *FileSink) Close() error { return s.f.Close() }

// MemSink buffers the stream in memory: the accounting-only backend for
// simulated runs and the capture device for the crash-injection tests.
// It is safe for concurrent use (the native flusher writes from its own
// goroutine while tests read Bytes).
type MemSink struct {
	mu    sync.Mutex
	buf   []byte
	syncs int
}

// NewMemSink returns an in-memory sink primed with the stream magic.
func NewMemSink() *MemSink {
	return &MemSink{buf: append([]byte(nil), Magic[:]...)}
}

// Write implements Sink.
func (s *MemSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
	return len(p), nil
}

// Sync implements Sink (a memory sink is "durable" by fiat; it counts
// syncs so tests can assert group-commit batching).
func (s *MemSink) Sync() error {
	s.mu.Lock()
	s.syncs++
	s.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *MemSink) Close() error { return nil }

// Bytes returns a copy of the stream written so far.
func (s *MemSink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...)
}

// Syncs returns how many Sync calls the sink has absorbed.
func (s *MemSink) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// ErrInjected is the sticky error a FaultSink returns once its fault
// point has fired.
var ErrInjected = errors.New("wal: injected crash")

// FaultSink is the pluggable fault point of the crash-injection harness:
// it forwards writes to an underlying sink until FailAfter total bytes
// have passed, then writes the partial remainder of the current write
// (the torn tail) and fails every subsequent operation. Killing the
// stream mid-record this way is exactly what a machine crash during a
// group-commit write does to a real log file.
type FaultSink struct {
	mu        sync.Mutex
	under     Sink
	remaining int64
	dead      bool
}

// NewFaultSink wraps under with a fault point failAfter bytes into the
// stream (counted from the wrap, so wrap before writing anything for an
// absolute offset). failAfter < 0 never fires.
func NewFaultSink(under Sink, failAfter int64) *FaultSink {
	return &FaultSink{under: under, remaining: failAfter}
}

// Write implements Sink, tearing the write that crosses the fault point.
func (s *FaultSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, ErrInjected
	}
	if s.remaining < 0 || int64(len(p)) <= s.remaining {
		if s.remaining >= 0 {
			s.remaining -= int64(len(p))
		}
		return s.under.Write(p)
	}
	// The fault fires inside this write: persist the torn prefix.
	n := int(s.remaining)
	s.remaining = 0
	s.dead = true
	if n > 0 {
		s.under.Write(p[:n])
	}
	return n, ErrInjected
}

// Sync implements Sink.
func (s *FaultSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrInjected
	}
	return s.under.Sync()
}

// Close implements Sink (closing the wreckage is allowed).
func (s *FaultSink) Close() error { return s.under.Close() }

// Failed reports whether the fault point has fired.
func (s *FaultSink) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

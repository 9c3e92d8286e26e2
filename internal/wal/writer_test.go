package wal

import (
	"errors"
	"testing"
	"time"
)

func commitFrame(worker int, n int) []byte {
	return AppendCommit(nil, &Commit{Worker: worker, Updates: []Update{{Table: 0, Slot: n, Image: []byte{byte(n)}}}})
}

func TestSyncWriterGroupCadence(t *testing.T) {
	sink := NewMemSink()
	w := NewWriter(sink, Config{})
	var sealed int
	for i := 0; i < 2*groupTxns+2; i++ {
		lsn, s := w.Append(commitFrame(0, i))
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if s {
			sealed++
			if (i+1)%groupTxns != 0 {
				t.Fatalf("append %d sealed a group, cadence is %d", i+1, groupTxns)
			}
		}
		w.WaitDurable(lsn) // must not block in sync mode
	}
	if sealed != 2 || sink.Syncs() != 2 {
		t.Fatalf("sealed=%d sinkSyncs=%d, want 2/2", sealed, sink.Syncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Syncs() != 3 { // close flushes the 2 unsealed records
		t.Fatalf("syncs after close = %d, want 3", sink.Syncs())
	}
	recs, info, err := Scan(sink.Bytes())
	if err != nil || info.TornBytes != 0 || len(recs) != 2*groupTxns+2 {
		t.Fatalf("scan: %d recs, info %+v, err %v", len(recs), info, err)
	}
}

// gatedSink is a MemSink whose Sync reports that it has started and
// then blocks until release is closed.
type gatedSink struct {
	*MemSink
	entered chan struct{}
	release chan struct{}
}

func (s *gatedSink) Sync() error {
	s.entered <- struct{}{}
	<-s.release
	return s.MemSink.Sync()
}

// TestAsyncWriterGroupCommit pins the flush policy: a group is
// exactly what was appended while the previous group's Sync ran.
func TestAsyncWriterGroupCommit(t *testing.T) {
	const n = 50
	// entered holds as many Syncs as n appends could cause, so a wrong
	// policy fails the count below instead of hanging.
	sink := &gatedSink{MemSink: NewMemSink(), entered: make(chan struct{}, n), release: make(chan struct{})}
	w := NewWriter(sink, Config{Async: true})
	w.Append(commitFrame(1, 0))
	<-sink.entered // the flusher is inside the first group's Sync
	var last uint64
	for i := 1; i < n; i++ {
		last, _ = w.Append(commitFrame(1, i))
	}
	close(sink.release)
	w.WaitDurable(last)
	if syncs := sink.Syncs(); syncs != 2 {
		t.Fatalf("sink syncs = %d, want 2: the first record alone, then the %d appended during its Sync", syncs, n-1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info, err := Scan(sink.Bytes())
	if err != nil || info.TornBytes != 0 {
		t.Fatalf("scan: info %+v, err %v", info, err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Commit == nil || r.Commit.Updates[0].Slot != i {
			t.Fatalf("record %d out of order: %+v", i, r.Commit)
		}
	}
}

// TestAsyncWriterIdleIssuesNoSync pins that nothing but an append wakes
// the flusher: once a group is durable, an idle writer stays silent.
func TestAsyncWriterIdleIssuesNoSync(t *testing.T) {
	w := NewWriter(NewMemSink(), Config{Async: true})
	defer w.Close()
	lsn, _ := w.Append(commitFrame(0, 0))
	w.WaitDurable(lsn)
	before := w.Syncs()
	time.Sleep(5 * time.Millisecond)
	if after := w.Syncs(); after != before {
		t.Fatalf("an idle writer synced %d more times", after-before)
	}
}

func TestAsyncWriterConcurrentAppend(t *testing.T) {
	sink := NewMemSink()
	w := NewWriter(sink, Config{Async: true})
	const workers, per = 8, 40
	done := make(chan struct{})
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				lsn, _ := w.Append(commitFrame(g, i))
				w.WaitDurable(lsn)
			}
		}(g)
	}
	for g := 0; g < workers; g++ {
		<-done
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info, err := Scan(sink.Bytes())
	if err != nil || info.TornBytes != 0 || len(recs) != workers*per {
		t.Fatalf("scan: %d recs, info %+v, err %v", len(recs), info, err)
	}
}

func TestWriterFaultIsSticky(t *testing.T) {
	mem := NewMemSink()
	// Fail ~60 bytes into the record stream (magic already written by mem).
	fault := NewFaultSink(mem, 60)
	w := NewWriter(fault, Config{})
	var firstErrAt uint64
	for i := 0; i < 20; i++ {
		lsn, _ := w.Append(commitFrame(0, i))
		if w.Err() != nil && firstErrAt == 0 {
			firstErrAt = lsn
		}
	}
	if firstErrAt == 0 {
		t.Fatal("fault never fired")
	}
	if !errors.Is(w.Err(), ErrInjected) {
		t.Fatalf("Err() = %v, want ErrInjected", w.Err())
	}
	if !fault.Failed() {
		t.Fatal("fault sink not marked failed")
	}
	if w.Seq() != 20 {
		t.Fatalf("seq = %d, want 20 (LSNs advance on a dead log)", w.Seq())
	}
	w.WaitDurable(20) // must not hang on a dead log
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close = %v, want ErrInjected", err)
	}
	// The torn stream still scans cleanly up to the tear.
	recs, info, err := Scan(mem.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.TornBytes == 0 {
		t.Fatal("expected a torn tail")
	}
	if len(recs) == 0 && int64(len(mem.Bytes())) > int64(len(Magic)) && info.Complete != int64(len(Magic)) {
		t.Fatalf("inconsistent scan of torn stream: %+v", info)
	}
}

func TestAsyncWriterFaultUnblocksWaiters(t *testing.T) {
	mem := NewMemSink()
	fault := NewFaultSink(mem, 10)
	w := NewWriter(fault, Config{Async: true})
	lsn, _ := w.Append(commitFrame(0, 0))
	donec := make(chan struct{})
	go func() {
		w.WaitDurable(lsn)
		close(donec)
	}()
	select {
	case <-donec:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable hung after injected crash")
	}
	if !errors.Is(w.Err(), ErrInjected) {
		t.Fatalf("Err() = %v, want ErrInjected", w.Err())
	}
	w.Close()
}

func TestWriterFlushIdempotent(t *testing.T) {
	sink := NewMemSink()
	w := NewWriter(sink, Config{})
	w.Append(commitFrame(0, 0))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Syncs() != 1 {
		t.Fatalf("double flush synced %d times, want 1", sink.Syncs())
	}
}

// discardSink accepts every write and sync and keeps nothing.
type discardSink struct{}

func (discardSink) Write(p []byte) (int, error) { return len(p), nil }
func (discardSink) Sync() error                 { return nil }
func (discardSink) Close() error                { return nil }

// TestAsyncDurableCommitAllocFree pins a durable commit on the async
// writer at zero allocations once warm: the flusher hands each written
// group's buffer back for the next group instead of growing a new one.
func TestAsyncDurableCommitAllocFree(t *testing.T) {
	w := NewWriter(discardSink{}, Config{Async: true})
	defer w.Close()
	frame := commitFrame(0, 1)
	commit := func() {
		lsn, _ := w.Append(frame)
		w.WaitDurable(lsn)
	}
	for i := 0; i < 8; i++ { // both buffers reach their working size
		commit()
	}
	if a := testing.AllocsPerRun(1000, commit); a != 0 {
		t.Fatalf("%.3f allocs per durable commit, want 0", a)
	}
}

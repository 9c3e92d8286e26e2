package wal

import "sync"

// Config tunes a Writer.
type Config struct {
	// Async selects real group commit: appends buffer in memory and a
	// background flusher writes + fsyncs them in groups (the native
	// runtime's mode). A group is whatever was appended while the
	// previous group's Sync ran, so there is no window to tune. When
	// false the writer is synchronous: every append reaches the sink
	// immediately and "group commit" is only modeled, one Sync per
	// groupTxns records — the simulator's accounting-only mode, which
	// keeps the log content deterministic.
	Async bool
}

// groupTxns is the synchronous mode's modeled group size: one Sync per
// this many appended records.
const groupTxns = 8

// Writer appends framed records to a Sink with group commit. All methods
// are safe for concurrent use. Errors are sticky: after a sink failure
// (an injected crash, a full disk) the log is dead — appends are dropped,
// WaitDurable unblocks, and Err reports the failure. In-memory
// transaction state is NOT rolled back on log failure; the crash harness
// keeps the engine alive precisely to compare its state against what the
// torn log recovers to.
type Writer struct {
	mu   sync.Mutex
	cond *sync.Cond
	sink Sink
	cfg  Config

	seq     uint64 // records appended (LSN of the newest record)
	durable uint64 // newest LSN known flushed+synced
	bytes   uint64 // payload bytes appended (excluding dropped ones)
	syncs   uint64 // sync operations issued (modeled or real)
	err     error

	// Synchronous mode state.
	sinceSync int

	// Async mode state. pending collects the next group; spare is the
	// buffer of the group last written, emptied, which the flusher swaps in
	// for pending so a warm writer appends without allocating.
	pending []byte
	spare   []byte
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	closed  bool
}

// NewWriter wraps sink. The sink must already contain the stream magic
// (CreateFile and NewMemSink both prime it).
func NewWriter(sink Sink, cfg Config) *Writer {
	w := &Writer{sink: sink, cfg: cfg}
	w.cond = sync.NewCond(&w.mu)
	if cfg.Async {
		w.kick = make(chan struct{}, 1)
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	return w
}

// Append adds one fully-framed record (from AppendCommit et al.) to the
// log and returns its LSN, plus whether this append sealed a modeled
// group (synchronous mode only — the caller bills the fsync cost to the
// sealing transaction). On a dead log the record is dropped but the LSN
// still advances, so callers never block on a crashed stream.
func (w *Writer) Append(frame []byte) (lsn uint64, sealed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	lsn = w.seq
	if w.err != nil {
		return lsn, false
	}
	if w.cfg.Async {
		if len(w.pending) == 0 { // a group's first record wakes the flusher
			select {
			case w.kick <- struct{}{}:
			default:
			}
		}
		w.pending = append(w.pending, frame...)
		w.bytes += uint64(len(frame))
		return lsn, false
	}
	if _, err := w.sink.Write(frame); err != nil {
		w.fail(err)
		return lsn, false
	}
	w.bytes += uint64(len(frame))
	w.durable = w.seq
	w.sinceSync++
	if w.sinceSync >= groupTxns {
		w.sinceSync = 0
		w.syncs++
		sealed = true
		if err := w.sink.Sync(); err != nil {
			w.fail(err)
		}
	}
	return lsn, sealed
}

// WaitDurable blocks until the record at lsn is flushed and fsynced (or
// the log dies). Synchronous writers are durable at append, so it returns
// immediately there.
func (w *Writer) WaitDurable(lsn uint64) {
	if !w.cfg.Async {
		return
	}
	w.mu.Lock()
	for w.durable < lsn && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// fail records the sink failure and releases every waiter. Caller holds mu.
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
}

// Err returns the sticky sink error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Seq returns the LSN of the newest appended record.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Bytes returns the record bytes appended (frames included, magic and
// dropped post-crash records excluded).
func (w *Writer) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Syncs returns how many sync operations the writer has issued.
func (w *Writer) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Flush forces everything appended so far to the sink, synced, and
// returns the sticky error state. Used by checkpoints and Close.
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.err != nil {
		defer w.mu.Unlock()
		return w.err
	}
	if !w.cfg.Async {
		if w.sinceSync > 0 {
			w.sinceSync = 0
			w.syncs++
			if err := w.sink.Sync(); err != nil {
				w.fail(err)
			}
		}
		defer w.mu.Unlock()
		return w.err
	}
	// Pending bytes always have a kick queued or a flush under way.
	upto := w.seq
	w.mu.Unlock()
	w.WaitDurable(upto)
	return w.Err()
}

// Close flushes, stops the flusher and closes the sink. Safe to call once.
func (w *Writer) Close() error {
	if w.cfg.Async {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return w.err
		}
		w.mu.Unlock()
		close(w.stop)
		<-w.done // final flush has happened
		w.mu.Lock()
		w.closed = true
		w.cond.Broadcast()
		w.mu.Unlock()
	} else {
		w.Flush()
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
	}
	cerr := w.sink.Close()
	if err := w.Err(); err != nil {
		return err
	}
	return cerr
}

// flushLoop is the async group-commit daemon (Aether's flush
// pipelining): kicked by the first append to an empty buffer, it writes
// and fsyncs everything pending and wakes the committers waiting on it.
// Appends that arrive during that Sync find the buffer empty again and
// re-arm the kick, so the next group is exactly what the previous flush
// overlapped; an idle flusher blocks on the kick with nothing pending.
func (w *Writer) flushLoop() {
	defer close(w.done)
	for {
		select {
		case <-w.kick:
			w.flushOnce()
		case <-w.stop:
			w.flushOnce()
			return
		}
	}
}

// flushOnce writes and syncs everything pending.
func (w *Writer) flushOnce() {
	w.mu.Lock()
	if w.err != nil || len(w.pending) == 0 {
		w.mu.Unlock()
		return
	}
	batch := w.pending
	upto := w.seq
	w.pending, w.spare = w.spare, nil
	w.mu.Unlock()

	_, werr := w.sink.Write(batch)
	if werr == nil {
		werr = w.sink.Sync()
	}

	w.mu.Lock()
	w.spare = batch[:0]
	if werr != nil {
		w.fail(werr)
	} else {
		w.durable = upto
		w.syncs++
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

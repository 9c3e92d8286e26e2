package abyss

import (
	"fmt"

	"abyss1000/internal/core"
	"abyss1000/internal/wal"
)

// The durability tier's public types. Like the engine types in abyss.go
// they are aliases: a sink built here is exactly what the log writer
// drives, so tests can inject faults at the byte level.
type (
	// LogSink is the byte-level destination of the write-ahead log:
	// Write appends, Sync makes everything written so far durable.
	// Errors are sticky — a failed log is a crashed log. Write must not
	// retain its argument: the log reuses the buffer for a later group.
	LogSink = wal.Sink

	// MemLogSink buffers the log in memory: the accounting-only backend
	// for simulated runs, and the capture device for crash tests (Bytes
	// returns the stream for Recover).
	MemLogSink = wal.MemSink

	// FileLogSink appends to a real file and fsyncs on Sync.
	FileLogSink = wal.FileSink

	// FaultLogSink wraps another sink with a byte-offset fault point: it
	// tears the write crossing the offset — exactly what a machine crash
	// during a group-commit write does — and fails everything after.
	FaultLogSink = wal.FaultSink

	// RecoverInfo summarizes what DB.Recover replayed: records scanned,
	// torn tail bytes dropped, the checkpoint restored, and the
	// commits/updates/inserts applied.
	RecoverInfo = core.RecoverInfo
)

// ErrLogInjected is the sticky error a FaultLogSink returns once its
// fault point has fired.
var ErrLogInjected = wal.ErrInjected

// NewMemLogSink returns an in-memory log sink primed with the WAL magic.
func NewMemLogSink() *MemLogSink { return wal.NewMemSink() }

// NewFaultLogSink wraps under with a fault point failAfter bytes into the
// stream (counted from the wrap; negative never fires).
func NewFaultLogSink(under LogSink, failAfter int64) *FaultLogSink {
	return wal.NewFaultSink(under, failAfter)
}

// CreateLogFile creates (truncating) a file-backed log sink and writes
// the WAL magic.
func CreateLogFile(path string) (*FileLogSink, error) { return wal.CreateFile(path) }

// Durability configures the write-ahead log attached at Open.
type Durability struct {
	// Sink receives the log stream. Nil means a fresh MemLogSink
	// (retrieve it with DB.LogSink to scan or persist the stream).
	Sink LogSink

	// Async selects real group commit: commits buffer in memory and a
	// background flusher writes+fsyncs them in groups, each group being
	// the commits that arrived while the previous one was syncing;
	// committing workers block until their record's group is durable.
	// Meant for RuntimeNative. When false (the default, and the only
	// sensible choice under RuntimeSim) the log is synchronous and
	// accounting-only: every record reaches the sink at commit, the
	// group fsync is charged to the LOG breakdown component every 8
	// commits, and the simulated schedule is byte-identical to a run
	// without durability.
	Async bool
}

// attachWAL builds the writer from opts.Durability and hangs it on the
// engine. Called by Open.
func (db *DB) attachWAL(d *Durability) {
	sink := d.Sink
	if sink == nil {
		sink = wal.NewMemSink()
	}
	db.logSink = sink
	db.wal = wal.NewWriter(sink, wal.Config{Async: d.Async})
	db.inner.Wal = db.wal
}

// Durable reports whether the DB was opened with a write-ahead log.
func (db *DB) Durable() bool { return db.wal != nil }

// LogSink returns the sink the log writes to (the Durability.Sink passed
// at Open, or the MemLogSink created by default), or nil when the DB is
// not durable.
func (db *DB) LogSink() LogSink { return db.logSink }

// FlushLog forces everything logged so far to the sink, synced, and
// returns the log's sticky error state.
func (db *DB) FlushLog() error {
	if db.wal == nil {
		return fmt.Errorf("abyss: this DB has no write-ahead log (set Options.Durability)")
	}
	return db.wal.Flush()
}

// CloseLog flushes and closes the log and its sink. The DB stays usable
// for state inspection; further commits would find a closed log, so only
// close after the last Run.
func (db *DB) CloseLog() error {
	if db.wal == nil {
		return fmt.Errorf("abyss: this DB has no write-ahead log (set Options.Durability)")
	}
	return db.wal.Close()
}

// LogErr returns the log's sticky error: non-nil after the sink failed
// (e.g. a FaultLogSink fired). Commits keep succeeding in memory after a
// log crash — the engine models a machine whose disk died but whose
// memory is still live, which is exactly what the crash harness compares
// recovery against.
func (db *DB) LogErr() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Err()
}

// LogStats reports the log's append count, byte count and sync count.
func (db *DB) LogStats() (records, bytes, syncs uint64) {
	if db.wal == nil {
		return 0, 0, 0
	}
	return db.wal.Seq(), db.wal.Bytes(), db.wal.Syncs()
}

// Checkpoint appends a quiesced snapshot of every table to the log and
// flushes it: rows, insert-allocation cursors, and runtime index entries.
// Recovery then starts from the checkpoint instead of replaying the whole
// stream. Call it only while no Run is in flight (before or after the
// DB's measurement).
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("abyss: this DB has no write-ahead log (set Options.Durability)")
	}
	return core.Checkpoint(db.inner, db.lastScheme)
}

// Recover replays a WAL stream onto this DB, which must hold the same
// freshly set-up catalog that produced the log (same BuildWorkload /
// setup calls: tables, loaded rows and indexes in the same order, not yet
// run). The stream may be torn at any byte — a crash mid group write —
// and recovery restores exactly the state committed by the complete
// prefix: the durable pre-crash committed state. Recovering the same
// stream again is a no-op (idempotent replay).
func (db *DB) Recover(stream []byte) (RecoverInfo, error) {
	info, err := core.Recover(db.inner, stream)
	if err != nil {
		return info, fmt.Errorf("abyss: recover: %w", err)
	}
	return info, nil
}

// StateDump serializes the DB's committed user-visible state — every
// populated row, allocation cursors, and runtime index entries — in a
// deterministic text form: two DBs with equal dumps hold identical
// committed state, which is how the crash harness compares a recovered
// DB against the original. The dump consults the scheme of this DB's Run
// (if any) for schemes whose committed state lives outside the table
// slab (MVCC's version chains). Quiesced use only.
func (db *DB) StateDump() string {
	return core.DumpState(db.inner, db.lastScheme)
}

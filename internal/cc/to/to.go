// Package to implements the basic timestamp-ordering scheme (TIMESTAMP in
// the paper, §2.2): every transaction carries a unique monotonically
// increasing timestamp; per-tuple read/write timestamps reject operations
// that arrive "too late" for the serialization order the timestamps fix a
// priori. As in the paper's implementation:
//
//   - the scheduler is decentralized (per-tuple latches, no global
//     critical section);
//   - reads make a private copy of the tuple to guarantee repeatable
//     reads without holding locks — the copy cost is why TIMESTAMP trails
//     the 2PL schemes on read-heavy workloads (Fig. 8);
//   - writes are *prewritten* (reserved) at execution time and installed
//     at commit: a reader or writer whose timestamp exceeds a pending
//     prewrite waits for it to resolve — the paper's WAIT component for
//     T/O ("wait ... for a tuple whose value is not ready yet") — so a
//     validated writer can never be invalidated later;
//   - waits always point from larger to smaller timestamps, so they are
//     deadlock-free;
//   - an aborted transaction receives a NEW timestamp when it restarts
//     (§2.2: "it is assigned a new timestamp and then restarted").
package to

import (
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// pend is a pending prewrite: a reservation of the tuple at ts by tx.
type pend struct {
	ts uint64
	tx *core.TxnCtx
}

// tupleTS is the per-tuple timestamp metadata: 40 bytes, plus the 8 of the
// tuple's latch in its table's slab. A tuple has at most one outstanding
// prewrite: installing one raises rts to the writer's timestamp, so an older
// writer is rejected by rts and a younger one waits for it to resolve. The
// waiter list is attached the first time somebody waits and kept from then
// on, so that memory is bounded by the set of tuples that have ever been
// contended, not by the table.
type tupleTS struct {
	wts     uint64 // timestamp of the last installed write
	rts     uint64 // timestamp of the last read
	pend    pend   // the outstanding prewrite; tx == nil is none
	waiters *[]rt.Proc
}

// tableTS is one table's timestamp state: the entry and the latch of slot i
// at index i of two parallel slot arrays laid out like the table's rows.
type tableTS struct {
	entries slot.Array[tupleTS]
	latches rt.Latches
}

// TO is the TIMESTAMP scheme.
type TO struct {
	method tsalloc.Method
	db     *core.DB
	alloc  tsalloc.Allocator
	meta   []tableTS // [table id]
}

// New creates a TIMESTAMP scheme drawing timestamps via method m.
func New(m tsalloc.Method) *TO { return &TO{method: m} }

// Name implements core.Scheme.
func (s *TO) Name() string { return "TIMESTAMP" }

// Setup implements core.Scheme.
func (s *TO) Setup(db *core.DB) {
	s.db = db
	s.alloc = tsalloc.New(s.method, db.RT)
	tables := db.Catalog.Tables()
	s.meta = make([]tableTS, len(tables))
	for _, t := range tables {
		s.meta[t.ID] = tableTS{
			entries: slot.Make[tupleTS](t.Layout()),
			latches: db.RT.NewLatches(uint64(t.ID)<<44|0x70<<36, t.Layout()),
		}
	}
}

// NewTxnState implements core.Scheme: TIMESTAMP keeps no state of its
// own, its prewrites being the engine's write set.
func (s *TO) NewTxnState(w *core.Worker) interface{} { return nil }

// Begin implements core.Scheme.
func (s *TO) Begin(tx *core.TxnCtx) {
	tx.TS = s.alloc.Next(tx.P)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

// blockedBy reports whether e has a pending prewrite from another
// transaction that precedes ts in the serialization order. Caller holds
// the tuple latch.
func blockedBy(e *tupleTS, ts uint64) bool {
	return e.pend.tx != nil && e.pend.ts < ts
}

// awaitPend parks tx behind e's earlier prewrite: it enqueues the worker,
// releases the tuple latch (held by the caller) and sleeps until the
// resolution wakes it or the re-check interval passes.
func (tl *tableTS) awaitPend(tx *core.TxnCtx, slot int) {
	e := tl.entries.At(slot)
	if e.waiters == nil {
		e.waiters = new([]rt.Proc)
	}
	*e.waiters = append(*e.waiters, tx.P)
	tl.latches.Release(tx.P, stats.Manager, slot)
	tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
}

// wakeAll unparks every waiter. Caller holds the tuple latch.
func (s *TO) wakeAll(p rt.Proc, e *tupleTS) {
	if e.waiters == nil {
		return // never contended: nobody is parked
	}
	for _, w := range *e.waiters {
		s.db.RT.Unpark(p, w)
	}
	*e.waiters = (*e.waiters)[:0]
}

// Read implements core.Scheme. Basic T/O read rule: reject if ts < wts;
// wait behind earlier pending writes; otherwise bump rts and copy the
// whole row, whatever columns the access names.
func (s *TO) Read(tx *core.TxnCtx, t *storage.Table, slot int, _ uint64) ([]byte, error) {
	if w := tx.Written(t, slot); w != nil {
		return w.Buf, nil // read own prewrite
	}
	tl := &s.meta[t.ID]
	e := tl.entries.At(slot)
	for {
		tl.latches.Acquire(tx.P, stats.Manager, slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		if tx.TS < e.wts {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, tx.AbortWith(core.CauseTOReadTooLate)
		}
		if blockedBy(e, tx.TS) {
			tl.awaitPend(tx, slot)
			continue
		}
		if e.rts < tx.TS {
			e.rts = tx.TS
		}
		// History capture: under the latch, with earlier pending writes
		// resolved, the live row is the committed version stamped e.wts.
		tx.CaptureReadVer(t, slot, e.wts)
		n := t.Schema.RowSize()
		buf := tx.Alloc.Alloc(tx.P, stats.Manager, n)
		tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(n))
		copy(buf, t.Row(slot))
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n)))
		tl.latches.Release(tx.P, stats.Manager, slot)
		return buf, nil
	}
}

// WriteRow implements core.Scheme: an update is a read-modify-write, so
// the read rule applies too; passing both rules installs a prewrite that
// later operations must respect. The returned buffer is the transaction's
// private prewrite image (seeded with the tuple's current contents); the
// caller mutates it in place and Commit installs it. No other transaction
// can observe the buffer before then — readers and writers ordered after
// this prewrite wait for its resolution, earlier ones read older state.
func (s *TO) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int, _ uint64) ([]byte, error) {
	if w := tx.Written(t, slot); w != nil {
		tx.P.Tick(stats.Useful, costs.CopyCost(uint64(len(w.Buf))))
		return w.Buf, nil
	}
	tl := &s.meta[t.ID]
	e := tl.entries.At(slot)
	for {
		tl.latches.Acquire(tx.P, stats.Manager, slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		if tx.TS < e.wts || tx.TS < e.rts {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, tx.AbortWith(core.CauseTOWriteTooLate)
		}
		if blockedBy(e, tx.TS) {
			// Our RMW must observe the earlier pending write.
			tl.awaitPend(tx, slot)
			continue
		}
		// Reserve: no later reader or writer can now invalidate us.
		if e.rts < tx.TS {
			e.rts = tx.TS // the RMW reads the tuple
		}
		// History capture: the RMW reads the committed version e.wts
		// before overwriting it.
		tx.CaptureReadVer(t, slot, e.wts)
		n := t.Schema.RowSize()
		buf := tx.Alloc.Alloc(tx.P, stats.Manager, n)
		tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(n))
		copy(buf, t.Row(slot))
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n)))
		if e.pend.tx != nil {
			panic("to: second prewrite on a tuple: rts must reject a writer older than the outstanding prewrite and a younger one must wait for it")
		}
		e.pend = pend{ts: tx.TS, tx: tx}
		tl.latches.Release(tx.P, stats.Manager, slot)
		tx.AddWrite(t, slot, buf, nil)
		return buf, nil
	}
}

// Commit implements core.Scheme: install the prewrites. Installation can
// neither fail nor wait — each prewrite reserved its tuple, and is the only
// one outstanding on it.
func (s *TO) Commit(tx *core.TxnCtx) error {
	// Commit point: under T/O the serialization order IS the timestamp
	// order, so the record (which carries tx.TS as its replay version)
	// can be appended before the installs below; replay keeps the
	// highest-timestamp image per slot regardless of append interleaving.
	tx.LogCommit()
	for _, w := range tx.Writes() {
		tl := &s.meta[w.T.ID]
		e := tl.entries.At(w.Slot)
		tl.latches.Acquire(tx.P, stats.Manager, w.Slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		copy(w.T.Row(w.Slot), w.Buf)
		tx.P.MemWrite(stats.Useful, w.T.MemKey(w.Slot), uint64(len(w.Buf)))
		if e.wts < tx.TS {
			e.wts = tx.TS
		}
		e.pend = pend{}
		s.wakeAll(tx.P, e)
		tl.latches.Release(tx.P, stats.Manager, w.Slot)
	}
	return nil
}

// Abort implements core.Scheme: withdraw prewrites, wake waiters.
func (s *TO) Abort(tx *core.TxnCtx) {
	for _, w := range tx.Writes() {
		tl := &s.meta[w.T.ID]
		e := tl.entries.At(w.Slot)
		tl.latches.Acquire(tx.P, stats.Abort, w.Slot)
		tx.P.Tick(stats.Abort, costs.ManagerOp)
		e.pend = pend{}
		s.wakeAll(tx.P, e)
		tl.latches.Release(tx.P, stats.Abort, w.Slot)
	}
}

// InitTuple implements core.Scheme: a fresh tuple is born with the
// inserting transaction's write timestamp.
func (s *TO) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {
	s.meta[t.ID].entries.At(slot).wts = tx.TS
}

// TSOrderedCommits marks T/O for the WAL: same-slot outcomes follow
// timestamp order, so commit records replay by version, not log position.
func (s *TO) TSOrderedCommits() {}

var (
	_ core.Scheme          = (*TO)(nil)
	_ core.TSOrderedScheme = (*TO)(nil)
)

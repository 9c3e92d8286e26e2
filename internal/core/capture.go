package core

import (
	"bytes"

	"abyss1000/internal/sercheck"
	"abyss1000/internal/slot"
	"abyss1000/internal/storage"
)

// Capture records the history of committed transactions — which row
// versions each one read and which it wrote — for the serializability
// checker in internal/sercheck. It is attached to a DB by Config.Check
// exactly like the WAL: a nil DB.Cap is the only cost when it is off,
// and when it is on every operation is accounting-only (no Tick, Sync,
// latch or billed memory traffic), so the schedule and the Result are
// identical to an uncaptured run.
//
// Version identity is per (table, slot). For schemes whose same-slot
// outcome is decided by commit order (2PL variants, OCC, H-STORE) a
// per-slot counter is bumped at the scheme's commit point while its
// locks or latches still pin the slot, so the counter order IS the
// version order. Timestamp-ordered schemes (TIMESTAMP, MVCC) install
// values in timestamp order regardless of commit arrival, so their
// version id is the transaction timestamp and reads report the wts they
// observed (TxnCtx.CaptureReadVer). Version 0 is the initially loaded
// row in both regimes.
//
// Capture supports one measurement run on a freshly populated database:
// the initial-state snapshot is taken when the run starts and version 0
// must mean "untouched since load" for every slot.
type Capture struct {
	// vers[tableID] holds each slot's committed-write counter, laid out
	// like the table's rows; bumped and sampled only under the owning
	// scheme's per-slot exclusion, so the plain (unbilled, non-atomic)
	// words are race-free on both runtimes.
	vers []slot.Array[uint64]

	// init[tableID][slot] holds the post-population row images.
	init []map[int][]byte

	// logs[worker] collects that worker's committed transactions, in the
	// checker's own types but with no ID yet (BuildHistory assigns them);
	// workers only touch their own slice, and the runtime's Run join
	// publishes them to the verifier.
	logs [][]sercheck.Txn
}

// newCapture snapshots db's populated state (setup rows plus any slots
// earlier runs inserted) as version 0 and sizes the version counters.
func newCapture(db *DB) *Capture {
	tables := db.Catalog.Tables()
	c := &Capture{
		vers: make([]slot.Array[uint64], len(tables)),
		init: make([]map[int][]byte, len(tables)),
		logs: make([][]sercheck.Txn, db.RT.NumProcs()),
	}
	for _, t := range tables {
		c.vers[t.ID] = slot.Make[uint64](t.Layout())
		c.init[t.ID] = snapshotRows(t, (*storage.Table).Row)
	}
	return c
}

// snapshotRows copies row(t, s) for every populated slot s of t, keyed
// by slot.
func snapshotRows(t *storage.Table, row func(*storage.Table, int) []byte) map[int][]byte {
	m := make(map[int][]byte, t.Loaded())
	t.Populated(func(_, start, end int) {
		for s := start; s < end; s++ {
			m[s] = bytes.Clone(row(t, s))
		}
	})
	return m
}

// CaptureRead records that the transaction observed the current
// committed version of (t, slot). Schemes whose version order is commit
// order call it at the point their rules fix which version the read
// sees — under the tuple lock, latch or partition lock, so the sample
// is ordered against the counter bump of any concurrent committer.
// No-op when capture is off; reads of the transaction's own writes and
// repeat reads of the same slot are filtered out.
func (tx *TxnCtx) CaptureRead(t *storage.Table, slot int) {
	c := tx.DB.Cap
	if c == nil {
		return
	}
	tx.captureRead(t, slot, *c.vers[t.ID].At(slot))
}

// CaptureReadVer is CaptureRead for timestamp-ordered schemes
// (TIMESTAMP, MVCC): ver is the wts of the version the read observed.
func (tx *TxnCtx) CaptureReadVer(t *storage.Table, slot int, ver uint64) {
	if tx.DB.Cap == nil {
		return
	}
	tx.captureRead(t, slot, ver)
}

func (tx *TxnCtx) captureRead(t *storage.Table, slot int, ver uint64) {
	// A read of our own pending write carries no dependency.
	if tx.Written(t, slot) != nil {
		return
	}
	// Every scheme gives repeatable reads within one transaction, so the
	// first record of a slot is THE version this transaction saw.
	for i := range tx.capReads {
		r := &tx.capReads[i]
		if r.Table == t.ID && r.Slot == slot {
			return
		}
	}
	tx.capReads = append(tx.capReads, sercheck.Access{Table: t.ID, Slot: slot, Ver: ver})
}

// commitPoint assigns this transaction's write versions. Called from
// LogCommit, i.e. at the scheme's commit point: counter schemes still
// hold their write locks/latches here, so the bump is exclusive per
// slot and ordered against every reader's sample.
func (c *Capture) commitPoint(tx *TxnCtx) {
	for i := range tx.writes {
		w := &tx.writes[i]
		c.recordWrite(tx, w.T, w.Slot, w.Buf)
	}
}

// recordWrite records the transaction's committed write of image at
// (t, s): its version is the transaction timestamp under a
// timestamp-ordered scheme and otherwise the slot's advanced
// committed-write counter, and the image is copied.
func (c *Capture) recordWrite(tx *TxnCtx, t *storage.Table, s int, image []byte) {
	ver := tx.TS
	if !tx.W.tsOrdered {
		v := c.vers[t.ID].At(s)
		*v++
		ver = *v
	}
	tx.capWrites = append(tx.capWrites, sercheck.Write{Table: t.ID, Slot: s, Ver: ver, Image: bytes.Clone(image)})
}

// captureInsert records a committed insert's write, the row built in
// place at slot. Called from LogCommit before the index entry is
// published, so no reader can sample the slot's counter before the bump.
func (c *Capture) captureInsert(tx *TxnCtx, t *storage.Table, slot int) {
	c.recordWrite(tx, t, slot, t.Row(slot))
}

// captureFinish appends the completed transaction to its worker's log.
// Called only on the committed path, after LogCommit; rolled-back
// transactions leave nothing behind.
func (tx *TxnCtx) captureFinish() {
	c := tx.DB.Cap
	if c == nil {
		return
	}
	if len(tx.capReads) == 0 && len(tx.capWrites) == 0 {
		return
	}
	id := tx.P.ID()
	c.logs[id] = append(c.logs[id], sercheck.Txn{
		Worker: id,
		TS:     tx.TS,
		Reads:  append([]sercheck.Access(nil), tx.capReads...),
		Writes: append([]sercheck.Write(nil), tx.capWrites...),
	})
}

// Committed returns the number of transactions the capture recorded.
func (c *Capture) Committed() int {
	n := 0
	for _, l := range c.logs {
		n += len(l)
	}
	return n
}

// BuildHistory assembles the captured run into the checker's input: the
// initial snapshot, every worker's committed transactions (IDs assigned
// deterministically by worker then commit order), and the engine's
// final committed state read the same way DumpState reads it (the live
// row, or the scheme's LatestCommitted for MVCC). A TSOrderedScheme's
// history is marked TSOrdered, so Check also holds every dependency to
// timestamp order. Quiesced use only.
func BuildHistory(db *DB, scheme Scheme) *sercheck.History {
	c := db.Cap
	if c == nil {
		panic("core: BuildHistory without Config.Check")
	}
	row, _ := committedRow(scheme)
	h := &sercheck.History{}
	_, h.TSOrdered = scheme.(TSOrderedScheme)
	for _, t := range db.Catalog.Tables() {
		h.Tables = append(h.Tables, sercheck.Table{
			ID:      t.ID,
			Name:    t.Schema.Name,
			RowSize: t.Schema.RowSize(),
			Init:    c.init[t.ID],
			Final:   snapshotRows(t, row),
		})
	}
	id := 0
	for _, l := range c.logs {
		for _, txn := range l {
			id++
			txn.ID = id
			h.Txns = append(h.Txns, txn)
		}
	}
	return h
}

// VerifyCapture builds the captured history and checks it for
// serializability and final-state equivalence.
func VerifyCapture(db *DB, scheme Scheme) *sercheck.Report {
	return sercheck.Check(BuildHistory(db, scheme))
}

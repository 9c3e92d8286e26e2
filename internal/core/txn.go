package core

import (
	"abyss1000/internal/costs"
	"abyss1000/internal/index"
	"abyss1000/internal/mem"
	"abyss1000/internal/rt"
	"abyss1000/internal/sercheck"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/wal"
)

// Scheme is the pluggable concurrency-control interface (§3.2: "a pluggable
// lock manager that allows us to swap in the different implementations of
// the concurrency control schemes"). One Scheme instance serves a whole DB;
// per-transaction state lives in the object returned by NewTxnState, which
// is allocated once per worker and reused.
type Scheme interface {
	// Name returns the paper's name for the scheme (e.g. "DL_DETECT").
	Name() string

	// Setup attaches per-tuple metadata to every table in db. Called
	// once, after the workload has populated the database.
	Setup(db *DB)

	// NewTxnState allocates the reusable per-worker transaction state.
	NewTxnState(w *Worker) interface{}

	// Begin starts a transaction: reset per-txn state, allocate a
	// timestamp if the scheme needs one.
	Begin(tx *TxnCtx)

	// Read returns a readable image of (t, slot): the live row for
	// locking schemes, a private copy for T/O and OCC, a version for
	// MVCC. It may return ErrAbort. cols is the mask of the columns the
	// access names (storage.AllCols when it names none): a scheme that
	// reads the shared row in place bills MemRead for their bytes
	// (t.Schema.Width), and one that copies the row bills the whole row,
	// whatever cols says.
	Read(tx *TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error)

	// WriteRow declares a write of (t, slot) and returns the target
	// buffer for the caller to mutate in place (the live row under 2PL
	// after undo capture; a workspace or version buffer under T/O
	// schemes). The buffer holds the row's current image, so
	// read-modify-write needs no separate lock upgrade and no closure —
	// the access path stays allocation-free. The buffer is valid until
	// Commit/Abort; callers must not retain it past transaction end. The
	// scheme records its first write of a slot in tx's write set
	// (AddWrite), which is the one list of the attempt's writes: Commit,
	// Abort, the WAL and the history capture all walk it. cols is the
	// mask of the columns the access names (storage.AllCols when it names
	// none): a scheme that writes the shared row in place bills MemWrite
	// for their bytes (t.Schema.Width). Undo images, versions and
	// workspaces are whole-row copies and are billed whole.
	WriteRow(tx *TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error)

	// Commit finalizes the transaction (validation, applying buffered
	// writes, releasing locks). It calls tx.LogCommit at its commit point,
	// which publishes the transaction's inserts, and must not fail after
	// that call. On error the engine calls Abort.
	Commit(tx *TxnCtx) error

	// Abort rolls back (undo in-place writes, discard buffers, release
	// locks, remove pending versions). Must be callable after any
	// partial execution, including after a failed Commit.
	Abort(tx *TxnCtx)

	// InitTuple initializes CC metadata for a freshly inserted tuple. The
	// engine calls it from LogCommit, at the scheme's commit point, just
	// before the tuple's index entries are published.
	InitTuple(tx *TxnCtx, t *storage.Table, slot int)
}

// insertRec is an insert in flight: its row is built in place at slot,
// reserved from the worker's insert segment, and no index maps the slot
// until LogCommit publishes ent[:n], in order, at the scheme's commit
// point. ent[0]'s index names the table; nothing asks an entry's index
// kind. A failed attempt clears the row and hands the slot back
// (dropInserts).
type insertRec struct {
	slot int
	n    int
	ent  [wal.MaxInsertEntries]indexKey
}

type indexKey struct {
	idx index.Index
	key uint64
}

// WriteEntry is one slot of a transaction's write set. Buf is the buffer
// the scheme handed back for (T, Slot), which holds the final after-image
// by the time the scheme reaches its commit point (the live row under 2PL
// and H-STORE, the private workspace under T/O and OCC, the pending
// version under MVCC), so LogCommit and the capture read images without
// knowing the scheme. Undo is the before-image, kept only by the schemes
// that write in place: always under 2PL, and under H-STORE only for a
// transaction that may roll back (MayRollBack); nil otherwise.
type WriteEntry struct {
	T    *storage.Table
	Slot int
	Buf  []byte
	Undo []byte
}

// TSOrderedScheme marks schemes whose same-slot final value is decided by
// transaction timestamp rather than by the order commits reach their
// commit point (TIMESTAMP, MVCC). Their commit records carry the
// transaction timestamp as the replay version so recovery keeps the
// highest-timestamp image regardless of log order. WAIT_DIE is NOT one of
// these: it uses timestamps only to pick abort victims; lock order still
// decides values.
type TSOrderedScheme interface {
	TSOrderedCommits()
}

// TxnCtx is the per-worker transaction context handed to Txn.Run. It is
// reused across transactions to avoid allocation churn.
type TxnCtx struct {
	P  rt.Proc
	W  *Worker
	DB *DB

	// TS is the transaction's timestamp, when the scheme allocates one.
	TS uint64

	// Txn is the transaction being executed (set by the engine before
	// Begin; H-STORE reads Partitions from it).
	Txn Txn

	// State is the scheme's per-transaction state (from NewTxnState).
	State interface{}

	// Alloc provides transaction-lifetime buffers, bulk-freed at
	// transaction end.
	Alloc mem.Allocator

	inserts []insertRec
	tuples  uint64

	// cause is why the scheme last aborted this attempt (AbortWith).
	cause AbortCause

	// writes is the attempt's write set, one entry per written slot, kept
	// by the scheme (Written, AddWrite, Writes). committed flips at the
	// commit point, when LogCommit has appended the commit record and
	// published the inserts.
	writes    []WriteEntry
	committed bool

	// capReads/capWrites accumulate the transaction's history-capture
	// record while DB.Cap is attached (see capture.go).
	capReads  []sercheck.Access
	capWrites []sercheck.Write

	// scanBuf backs RangeScan results for the transaction's lifetime: each
	// scan appends its entries and returns its own window, so nested scans
	// (index-nested-loop joins) never clobber each other. Reset per txn,
	// steady-state allocation-free once grown.
	scanBuf []index.Entry
}

func (tx *TxnCtx) reset() {
	tx.inserts = tx.inserts[:0]
	tx.tuples = 0
	tx.cause = CauseOther
	tx.TS = 0
	tx.writes = tx.writes[:0]
	tx.committed = false
	tx.capReads = tx.capReads[:0]
	tx.capWrites = tx.capWrites[:0]
	tx.scanBuf = tx.scanBuf[:0]
	tx.Alloc.Reset()
}

// Written returns the write-set entry of (t, slot), or nil if the attempt
// has not written the slot.
func (tx *TxnCtx) Written(t *storage.Table, slot int) *WriteEntry {
	for i := range tx.writes {
		if w := &tx.writes[i]; w.T == t && w.Slot == slot {
			return w
		}
	}
	return nil
}

// AddWrite records the scheme's first write of (t, slot), for which
// Written found no entry: buf is the buffer the scheme hands back, undo
// the before-image of an in-place write (nil otherwise).
func (tx *TxnCtx) AddWrite(t *storage.Table, slot int, buf, undo []byte) {
	tx.writes = append(tx.writes, WriteEntry{T: t, Slot: slot, Buf: buf, Undo: undo})
}

// Writes returns the write set in the order the slots were first written,
// for the scheme's Commit and Abort to walk. A scheme may reorder it in
// place.
func (tx *TxnCtx) Writes() []WriteEntry { return tx.writes }

// AbortWith records why the scheme aborts the attempt and returns
// ErrAbort, for the scheme to return in turn. It allocates nothing.
func (tx *TxnCtx) AbortWith(c AbortCause) error {
	tx.cause = c
	return ErrAbort
}

// Lookup probes idx for key. Index time (the bucket's line and its chain,
// read in a read section on the bucket latch) is billed to the INDEX
// component.
func (tx *TxnCtx) Lookup(idx *index.Hash, key uint64) (int, bool) {
	return idx.Lookup(tx.P, key)
}

// RangeScan collects every ordered-index entry with lo <= key <= hi, in
// ascending key order, billing the INDEX component for the traversal. The
// returned slice is valid for the rest of the transaction (nested scans
// get separate windows). The scan yields key→slot pairs only; reading the
// rows afterwards through Read pays the concurrency-control protocol per
// tuple and is what the serializability capture sees. The pair set itself
// is latch-consistent, not serializable: an insert committed after the
// scan's latch window is invisible, so range predicates can observe
// phantoms under every scheme (see workloads/chaos).
func (tx *TxnCtx) RangeScan(o *index.Ordered, lo, hi uint64) []index.Entry {
	return tx.RangeScanLimit(o, lo, hi, -1)
}

// RangeScanLimit is RangeScan capped at max entries (the lowest-keyed
// matches); max < 0 means unlimited.
func (tx *TxnCtx) RangeScanLimit(o *index.Ordered, lo, hi uint64, max int) []index.Entry {
	start := len(tx.scanBuf)
	tx.scanBuf = o.RangeScanLimit(tx.P, lo, hi, max, tx.scanBuf)
	end := len(tx.scanBuf)
	return tx.scanBuf[start:end:end]
}

// Read returns a readable row image for (t, slot) via the scheme. cols
// names the columns the access reads; naming none names the whole row. A
// scheme that reads the row in place bills only the named columns' bytes,
// so the caller names every column it reads. The image holds the whole
// row either way.
func (tx *TxnCtx) Read(t *storage.Table, slot int, cols ...int) ([]byte, error) {
	tx.tuples++
	row, err := tx.W.Scheme.Read(tx, t, slot, t.Schema.Mask(cols))
	if err != nil {
		return nil, err
	}
	tx.P.Tick(stats.Useful, costs.UsefulPerRow)
	return row, nil
}

// UpdateRow declares a write on (t, slot) and returns the scheme's target
// buffer, which holds the row's current image; the caller mutates it in
// place (read-modify-write needs no second call). The buffer is valid
// until Commit/Abort. cols names the columns the access reads or stores;
// naming none names the whole row. A scheme that writes the row in place
// bills only the named columns' bytes, so the caller names every column it
// touches and stores into no other.
func (tx *TxnCtx) UpdateRow(t *storage.Table, slot int, cols ...int) ([]byte, error) {
	tx.tuples++
	row, err := tx.W.Scheme.WriteRow(tx, t, slot, t.Schema.Mask(cols))
	if err != nil {
		return nil, err
	}
	tx.P.Tick(stats.Useful, costs.UsefulPerRow)
	return row, nil
}

// LogCommit appends the transaction's commit record to the attached WAL
// and then publishes its inserts. Schemes call it at their commit point —
// the instant their locks, latches or validation outcome fix the
// transaction's place in the serialization order — so the log sees
// commits in an order consistent with their effects, and no reader can
// see a committed write without the rows inserted beside it. Every
// scheme's successful Commit calls it exactly once. Read-only
// transactions append nothing.
//
// Log time is billed to the LOG component via Breakdown.Add, which never
// advances the simulated clock: with accounting-only logging the
// simulator's schedule — and therefore the golden signature — is
// byte-identical to a run without durability.
func (tx *TxnCtx) LogCommit() {
	tx.committed = true
	if c := tx.DB.Cap; c != nil {
		// The history capture shares the commit point: write versions are
		// assigned here, while the scheme's locks or latches still pin
		// every written slot (see capture.go).
		c.commitPoint(tx)
	}
	if lw := tx.DB.Wal; lw != nil && (len(tx.writes) > 0 || len(tx.inserts) > 0) {
		tx.appendCommit(lw)
	}
	tx.publishInserts()
}

// appendCommit appends the transaction's commit record to lw.
func (tx *TxnCtx) appendCommit(lw *wal.Writer) {
	w := tx.W
	c := &w.walCommit
	c.Worker = tx.P.ID()
	c.Ver = 0
	if w.tsOrdered {
		c.Ver = tx.TS
	}
	c.Updates = c.Updates[:0]
	for i := range tx.writes {
		wr := &tx.writes[i]
		c.Updates = append(c.Updates, wal.Update{Table: wr.T.ID, Slot: wr.Slot, Image: wr.Buf})
	}
	c.Inserts = c.Inserts[:0]
	for i := range tx.inserts {
		in := &tx.inserts[i]
		t := in.ent[0].idx.Table()
		rec := wal.Insert{Table: t.ID, Image: t.Row(in.slot), N: in.n}
		for j, e := range in.ent[:in.n] {
			rec.Entries[j] = wal.InsertEntry{Index: e.idx.Ordinal(), Key: e.key}
		}
		c.Inserts = append(c.Inserts, rec)
	}
	w.walBuf = wal.AppendCommit(w.walBuf[:0], c)
	lsn, sealed := lw.Append(w.walBuf)
	w.walLSN = lsn
	cycles := uint64(costs.LogAppend) + costs.CopyCost(uint64(len(w.walBuf)))
	if sealed {
		cycles += costs.LogFsync
	}
	tx.P.Stats().Add(stats.Log, cycles)
}

// InsertRow reserves a slot for a new row of idx's table, to be published
// under key, and returns the slot's zeroed table row for the caller to
// fill in place. idx may be of either kind: a table whose one index is
// ordered is published straight into it. No index maps the slot until the
// scheme's commit point (LogCommit); a failed attempt clears the row and
// hands the slot back.
func (tx *TxnCtx) InsertRow(idx index.Index, key uint64) []byte {
	tx.tuples++
	t := idx.Table()
	slot := t.AllocSlot(tx.P.ID())
	if slot < 0 {
		panic("core: table " + t.Schema.Name + " insert segment exhausted; raise capacity")
	}
	row := t.Row(slot)
	tx.P.Tick(stats.Useful, costs.UsefulPerRow)
	tx.P.MemWrite(stats.Useful, t.MemKey(slot), uint64(len(row)))
	tx.inserts = append(tx.inserts, insertRec{slot: slot, n: 1, ent: [wal.MaxInsertEntries]indexKey{{idx, key}}})
	return row
}

// InsertRowOrdered is InsertRow for a row that is additionally published
// into the ordered secondary index oidx under okey, after the hash entry.
// A nil oidx publishes the hash entry alone, so workloads whose ordered
// indexes are optional make one call either way.
func (tx *TxnCtx) InsertRowOrdered(idx *index.Hash, key uint64, oidx *index.Ordered, okey uint64) []byte {
	row := tx.InsertRow(idx, key)
	if oidx != nil { // tested here: a nil *Ordered in an index.Index is non-nil
		rec := &tx.inserts[len(tx.inserts)-1]
		rec.n, rec.ent[1] = 2, indexKey{oidx, okey}
	}
	return row
}

// publishInserts makes the transaction's rows visible, in insert order:
// the scheme's tuple metadata, the capture's write, then the index
// entries.
func (tx *TxnCtx) publishInserts() {
	for i := range tx.inserts {
		rec := &tx.inserts[i]
		t := rec.ent[0].idx.Table()
		tx.W.Scheme.InitTuple(tx, t, rec.slot)
		if c := tx.DB.Cap; c != nil {
			c.captureInsert(tx, t, rec.slot)
		}
		for _, e := range rec.ent[:rec.n] {
			e.idx.Insert(tx.P, e.key, rec.slot)
		}
	}
}

// dropInserts rolls a failed attempt's inserts back: newest first, each
// row is cleared and its slot handed back to the worker's segment, so the
// slots past a segment's cursor stay all zero and the next insert reuses
// them. The clearing is billed to ABORT.
func (tx *TxnCtx) dropInserts() {
	if tx.committed && len(tx.inserts) > 0 {
		panic("core: a transaction failed after its commit point published its inserts")
	}
	for i := len(tx.inserts) - 1; i >= 0; i-- {
		rec := &tx.inserts[i]
		t := rec.ent[0].idx.Table()
		row := t.Row(rec.slot)
		clear(row)
		tx.P.MemWrite(stats.Abort, t.MemKey(rec.slot), uint64(len(row)))
		tx.P.Tick(stats.Abort, costs.CopyCost(uint64(len(row))))
		t.FreeSlot(tx.P.ID(), rec.slot)
	}
	tx.inserts = tx.inserts[:0]
}

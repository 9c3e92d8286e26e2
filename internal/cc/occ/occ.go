// Package occ implements optimistic concurrency control (OCC in the paper,
// §2.2): transactions keep a read set, buffer every write in a private
// workspace held by the engine's write set (TxnCtx), and validate at
// commit. Following the paper's design — "our algorithm is similar to
// Hekaton in that we parallelize the validation phase" (§4.3 "Distributed
// Validation") — there is no global critical section: validation uses
// per-tuple latches and version words only.
//
// Per-tuple metadata is a version word (wts<<1 | lockbit) published
// through a runtime counter, plus a latch that serializes writers during
// the install phase. The paper charges OCC two timestamp allocations per
// transaction (start and validation; §5.1: "OCC hits the bottleneck even
// earlier since it needs to allocate timestamps twice per transaction"),
// and so do we.
//
// Commit protocol (deadlock-free):
//  1. latch the write set in canonical (table, slot) order, marking each
//     version word locked;
//  2. validate the read set: each observed version word must be unchanged
//     and unlocked (or locked by this transaction);
//  3. allocate the commit timestamp, install buffered writes, publish new
//     version words, release latches.
package occ

import (
	"slices"

	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// tableWords is one table's per-tuple metadata, which is nothing but two
// slabs: slot i's writer latch and its version word (wts<<1 | lockbit).
type tableWords struct {
	latches rt.Latches
	words   rt.Counters
}

// readRec records one read-set element.
type readRec struct {
	t    *storage.Table
	slot int
	word uint64 // version word observed at read time
	buf  []byte // private copy (repeatable reads without locks)
}

// txnState is the reusable per-worker transaction state: the read set.
// The buffered writes are the engine's write set.
type txnState struct {
	reads []readRec
}

// OCC is the optimistic scheme.
type OCC struct {
	method tsalloc.Method
	db     *core.DB
	alloc  tsalloc.Allocator
	meta   []tableWords // [table id]

	// centralWanted selects the ablation mode; central is the latch,
	// created at Setup. When set, the whole validation phase serializes
	// through one critical section — the original Kung-Robinson
	// structure the paper contrasts with its parallelized validation
	// ("any mutex-protected critical section severely hurts
	// scalability", §4.3). Used by the validation ablation benchmark.
	centralWanted bool
	central       rt.Latches // a slab of one
}

// New creates an OCC scheme with parallel per-tuple validation (the
// paper's Hekaton-style design), drawing timestamps via method m.
func New(m tsalloc.Method) *OCC { return &OCC{method: m} }

// NewCentral creates the ablation baseline: identical OCC except commits
// serialize through a single global validation critical section, as in
// the original algorithm.
func NewCentral(m tsalloc.Method) *OCC { return &OCC{method: m, centralWanted: true} }

// Name implements core.Scheme.
func (s *OCC) Name() string {
	if s.centralWanted {
		return "OCC_CENTRAL"
	}
	return "OCC"
}

// Setup implements core.Scheme.
func (s *OCC) Setup(db *core.DB) {
	s.db = db
	s.alloc = tsalloc.New(s.method, db.RT)
	if s.centralWanted {
		s.central = db.RT.NewLatches(0x0CC_CE117A1, slot.Fixed(1))
	}
	tables := db.Catalog.Tables()
	s.meta = make([]tableWords, len(tables))
	for _, t := range tables {
		base := uint64(t.ID)<<44 | 0x0C<<36
		s.meta[t.ID] = tableWords{
			latches: db.RT.NewLatches(base, t.Layout()),
			words:   db.RT.NewCounters(base|1<<35, t.Layout()),
		}
	}
}

// NewTxnState implements core.Scheme.
func (s *OCC) NewTxnState(w *core.Worker) interface{} { return &txnState{} }

// Begin implements core.Scheme: OCC allocates its first timestamp at
// transaction start.
func (s *OCC) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	st.reads = st.reads[:0]
	tx.TS = s.alloc.Next(tx.P)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

// sortWrites orders the write set by canonical (table, slot), the global
// latch-acquisition order that makes the install phase deadlock-free.
// slices.SortFunc is generic — no interface boxing, no reflection, no
// allocation — unlike sort.Slice, which would allocate on every commit.
func sortWrites(w []core.WriteEntry) {
	slices.SortFunc(w, func(a, b core.WriteEntry) int {
		if a.T.ID != b.T.ID {
			return a.T.ID - b.T.ID
		}
		return a.Slot - b.Slot
	})
}

// read returns st's read-set record of (t, slot), or nil.
func (st *txnState) read(t *storage.Table, slot int) *readRec {
	for i := range st.reads {
		if r := &st.reads[i]; r.t == t && r.slot == slot {
			return r
		}
	}
	return nil
}

// snapshot copies (t, slot) into a private buffer under the tuple latch
// and records the version word observed.
func (s *OCC) snapshot(tx *core.TxnCtx, t *storage.Table, slot int) readRec {
	m := &s.meta[t.ID]
	n := t.Schema.RowSize()
	buf := tx.Alloc.Alloc(tx.P, stats.Manager, n)
	m.latches.Acquire(tx.P, stats.Manager, slot)
	word := m.words.Load(tx.P, stats.Manager, slot)
	// History capture: the latch orders this sample against any
	// committer's version bump; if the version later changes, validation
	// fails and the captured read dies with the aborted transaction.
	tx.CaptureRead(t, slot)
	tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(n))
	copy(buf, t.Row(slot))
	tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n)))
	m.latches.Release(tx.P, stats.Manager, slot)
	return readRec{t: t, slot: slot, word: word, buf: buf}
}

// Read implements core.Scheme: copy the whole row into the private
// workspace, whatever columns the access names, and record the read set
// entry. Never blocks, never aborts — conflicts surface at validation.
func (s *OCC) Read(tx *core.TxnCtx, t *storage.Table, slot int, _ uint64) ([]byte, error) {
	st := tx.State.(*txnState)
	if w := tx.Written(t, slot); w != nil {
		return w.Buf, nil
	}
	if r := st.read(t, slot); r != nil {
		return r.buf, nil
	}
	rec := s.snapshot(tx, t, slot)
	st.reads = append(st.reads, rec)
	return rec.buf, nil
}

// WriteRow implements core.Scheme: return the private workspace buffer
// for the caller to mutate. The implicit read (callers may RMW the
// returned image) joins the read set so validation catches conflicts.
func (s *OCC) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int, _ uint64) ([]byte, error) {
	if w := tx.Written(t, slot); w != nil {
		tx.P.Tick(stats.Useful, costs.CopyCost(uint64(len(w.Buf))))
		return w.Buf, nil
	}
	st := tx.State.(*txnState)
	var buf []byte
	if r := st.read(t, slot); r != nil {
		buf = r.buf // promote: the read copy becomes the write buffer
	} else {
		rec := s.snapshot(tx, t, slot)
		st.reads = append(st.reads, rec)
		buf = rec.buf
	}
	tx.AddWrite(t, slot, buf, nil)
	return buf, nil
}

// Commit implements core.Scheme: parallel per-tuple validation (or, in
// the OCC_CENTRAL ablation, the same protocol inside one global critical
// section).
func (s *OCC) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	ws := tx.Writes()
	if len(ws) == 0 && len(st.reads) == 0 {
		// Nothing to validate: the commit point is now (an insert-only
		// transaction publishes its rows here).
		tx.LogCommit()
		return nil
	}
	if s.central != nil {
		s.central.Acquire(tx.P, stats.Manager, 0)
		defer s.central.Release(tx.P, stats.Manager, 0)
	}

	// Phase 1: lock the write set in canonical order.
	sortWrites(ws)
	for i := range ws {
		w := &ws[i]
		m := &s.meta[w.T.ID]
		m.latches.Acquire(tx.P, stats.Manager, w.Slot)
		word := m.words.Load(tx.P, stats.Manager, w.Slot)
		m.words.Store(tx.P, stats.Manager, w.Slot, word|1)
	}

	// Phase 2: validate the read set against current version words.
	ok := true
	for i := range st.reads {
		r := &st.reads[i]
		cur := s.meta[r.t.ID].words.Load(tx.P, stats.Manager, r.slot)
		if tx.Written(r.t, r.slot) != nil {
			// We hold this tuple's latch; valid iff unchanged since
			// our read (modulo our own lock bit).
			if cur != r.word|1 {
				ok = false
				break
			}
			continue
		}
		if cur != r.word {
			ok = false
			break
		}
	}

	if !ok {
		// Unlock and fail; Abort discards the workspace.
		for i := range ws {
			w := &ws[i]
			m := &s.meta[w.T.ID]
			word := m.words.Load(tx.P, stats.Abort, w.Slot)
			m.words.Store(tx.P, stats.Abort, w.Slot, word&^1)
			m.latches.Release(tx.P, stats.Abort, w.Slot)
		}
		return tx.AbortWith(core.CauseOCCValidation)
	}

	// Commit point: validation succeeded and the write set is still
	// latched, so the log sees commits in validation order.
	tx.LogCommit()

	// Phase 3: the second timestamp allocation (the paper charges OCC
	// two per transaction), then install.
	commitTS := s.alloc.Next(tx.P)
	for i := range ws {
		w := &ws[i]
		m := &s.meta[w.T.ID]
		copy(w.T.Row(w.Slot), w.Buf)
		tx.P.MemWrite(stats.Useful, w.T.MemKey(w.Slot), uint64(len(w.Buf)))
		m.words.Store(tx.P, stats.Manager, w.Slot, commitTS<<1)
		m.latches.Release(tx.P, stats.Manager, w.Slot)
	}
	return nil
}

// Abort implements core.Scheme: the workspace is private; nothing to undo.
func (s *OCC) Abort(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	st.reads = st.reads[:0]
	tx.P.Tick(stats.Abort, costs.ManagerOp)
}

// InitTuple implements core.Scheme: version word zero (wts 0, unlocked) is
// already correct for fresh tuples.
func (s *OCC) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {}

var _ core.Scheme = (*OCC)(nil)

// Package twopl implements the paper's three two-phase-locking variants
// (§2.1) over per-tuple lock queues (§4.1 "Lock Table": "instead of having
// a centralized lock table ... we implemented these data structures in a
// per-tuple fashion where each transaction only latches the tuples that it
// needs"):
//
//	DL_DETECT — waiting with decentralized deadlock detection (and the
//	            Fig. 5 wait-timeout knob; 100 µs default as in §4.2).
//	NO_WAIT   — non-waiting deadlock prevention: a denied lock request
//	            aborts the requester immediately.
//	WAIT_DIE  — a requester older than every conflicting holder waits;
//	            a younger one dies (timestamps make deadlock impossible).
//
// All variants implement strict 2PL: locks are held to transaction end,
// writes are in-place with undo images, and both commit and abort release
// every lock (waking compatible waiters FIFO).
package twopl

import (
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/waitgraph"
)

// Variant selects the deadlock-handling strategy.
type Variant int

const (
	// DLDetect is 2PL with deadlock detection.
	DLDetect Variant = iota
	// NoWait is 2PL with non-waiting deadlock prevention.
	NoWait
	// WaitDie is 2PL with wait-and-die deadlock prevention.
	WaitDie
	// Adaptive is the §6.1 hybrid: per-worker switching between
	// DL_DETECT (low contention) and NO_WAIT (thrashing). See
	// adaptive.go.
	Adaptive
)

func (v Variant) String() string {
	switch v {
	case DLDetect:
		return "DL_DETECT"
	case NoWait:
		return "NO_WAIT"
	case WaitDie:
		return "WAIT_DIE"
	case Adaptive:
		return "ADAPTIVE"
	default:
		return "2PL(?)"
	}
}

// NoTimeout disables DL_DETECT's wait timeout (wait until granted or a
// deadlock is detected).
const NoTimeout = ^uint64(0)

// DefaultTimeout is the paper's chosen DL_DETECT timeout (§4.2: "we
// evaluate DL_DETECT with its timeout threshold set to 100µs"), in cycles
// at 1 GHz.
const DefaultTimeout = 100_000

// Options tunes a 2PL instance.
type Options struct {
	// Timeout is the maximum wait before a DL_DETECT transaction aborts
	// itself (Fig. 5's sweep). 0 aborts immediately on any wait
	// (equivalent to NO_WAIT, as the paper notes); NoTimeout waits
	// indefinitely. Ignored by NO_WAIT and WAIT_DIE.
	Timeout uint64

	// DisableDetection turns off the deadlock detector, used by the
	// Fig. 4 lock-thrashing experiment where transactions acquire locks
	// in primary-key order and detection is unnecessary.
	DisableDetection bool

	// TsMethod is the timestamp allocator used by WAIT_DIE (other
	// variants allocate no timestamps).
	TsMethod tsalloc.Method
}

type lockMode byte

const (
	modeFree lockMode = iota
	modeShared
	modeExcl
)

// waiter is one queued request.
type waiter struct {
	st      *txnState
	mode    lockMode
	upgrade bool
}

// lockEntry is the per-tuple lock word — the "several bytes" of per-tuple
// overhead the paper trades for scalability: 24 bytes here, plus the 8 of
// the tuple's latch in its table's slab. A lock with a single holder and no
// queue, which is every lock an uncontended workload ever takes, lives
// entirely in the entry. The sharer list and the wait queue exist only
// behind spill, attached the first time the tuple gets a second holder or
// a waiter and kept from then on, so that memory is bounded by the set of
// tuples that have ever been contended, not by the table.
type lockEntry struct {
	mode  lockMode
	first [1]*txnState // the holder, while spill == nil; a nil element is none
	spill *lockSpill
}

// lockSpill is a contended tuple's holder list (grant order) and wait queue
// (grant order from the head). Both start in the inline arrays, so
// attaching a spill is one allocation and a tuple shared or queued two deep
// never makes another.
type lockSpill struct {
	holders []*txnState
	waiters []waiter
	hbuf    [2]*txnState
	wbuf    [2]waiter
}

// holders returns the transactions holding the lock, in grant order.
func (e *lockEntry) holders() []*txnState {
	if e.spill != nil {
		return e.spill.holders
	}
	if e.first[0] == nil {
		return nil
	}
	return e.first[:]
}

// waiters returns the wait queue, head first.
func (e *lockEntry) waiters() []waiter {
	if e.spill == nil {
		return nil
	}
	return e.spill.waiters
}

// spilled returns e's spill, attaching it (and moving the inline holder
// into it) on first use.
func (e *lockEntry) spilled() *lockSpill {
	if e.spill == nil {
		sp := &lockSpill{}
		sp.holders = append(sp.hbuf[:0], e.holders()...)
		sp.waiters = sp.wbuf[:0]
		e.first[0] = nil
		e.spill = sp
	}
	return e.spill
}

// addHolder appends st to the holder list.
func (e *lockEntry) addHolder(st *txnState) {
	if e.spill == nil && e.first[0] == nil {
		e.first[0] = st
		return
	}
	sp := e.spilled()
	sp.holders = append(sp.holders, st)
}

// dropHolder removes st from the holder list, keeping the others' order.
func (e *lockEntry) dropHolder(st *txnState) {
	if e.spill == nil {
		if e.first[0] == st {
			e.first[0] = nil
		}
		return
	}
	h := e.spill.holders
	for j := range h {
		if h[j] == st {
			e.spill.holders = append(h[:j], h[j+1:]...)
			return
		}
	}
}

// soleHolder reports whether st holds the lock alone.
func (e *lockEntry) soleHolder(st *txnState) bool {
	h := e.holders()
	return len(h) == 1 && h[0] == st
}

// tableLocks is one table's lock state: the entry and the latch of slot i
// at index i of two parallel slot arrays laid out like the table's rows.
type tableLocks struct {
	entries slot.Array[lockEntry]
	latches rt.Latches
}

// heldLock records a lock for release at transaction end.
type heldLock struct {
	table int32
	slot  int32
	mode  lockMode
}

// txnState is the reusable per-worker transaction state.
type txnState struct {
	w   *core.Worker
	seq uint64 // waits-for graph sequence
	ts  uint64 // WAIT_DIE age (stable for the transaction's lifetime)

	held []heldLock

	// Wait handshake: set by a granter under the tuple latch.
	granted bool

	edgeBuf []waitgraph.Edge
}

// TwoPL is one of the three 2PL schemes, selected by Variant.
type TwoPL struct {
	variant Variant
	opts    Options
	db      *core.DB
	alloc   tsalloc.Allocator
	graph   *waitgraph.Graph
	meta    []tableLocks // [table id]
	adapt   []adaptState // per-worker controllers (Adaptive variant)
}

// New creates a 2PL scheme.
func New(v Variant, opts Options) *TwoPL {
	if v == DLDetect && opts.Timeout == 0 {
		// Timeout 0 is a legitimate Fig. 5 setting, but the zero value
		// of Options should mean "the paper's default".
		opts.Timeout = DefaultTimeout
	}
	return &TwoPL{variant: v, opts: opts}
}

// NewWithTimeout creates a DL_DETECT instance with an explicit timeout,
// including 0 ("abort as soon as a lock is denied") for the Fig. 5 sweep.
func NewWithTimeout(timeout uint64, disableDetection bool) *TwoPL {
	return &TwoPL{
		variant: DLDetect,
		opts:    Options{Timeout: timeout, DisableDetection: disableDetection},
	}
}

// Name implements core.Scheme.
func (s *TwoPL) Name() string { return s.variant.String() }

// Setup implements core.Scheme.
func (s *TwoPL) Setup(db *core.DB) {
	s.db = db
	tables := db.Catalog.Tables()
	s.meta = make([]tableLocks, len(tables))
	for _, t := range tables {
		s.meta[t.ID] = tableLocks{
			entries: slot.Make[lockEntry](t.Layout()),
			latches: db.RT.NewLatches(uint64(t.ID)<<44|0x2B<<36, t.Layout()),
		}
	}
	if (s.variant == DLDetect || s.variant == Adaptive) && !s.opts.DisableDetection {
		s.graph = waitgraph.New(db.RT)
	}
	if s.variant == WaitDie {
		s.alloc = tsalloc.New(s.opts.TsMethod, db.RT)
	}
	if s.variant == Adaptive {
		s.adapt = make([]adaptState, db.RT.NumProcs())
	}
}

// NewTxnState implements core.Scheme.
func (s *TwoPL) NewTxnState(w *core.Worker) interface{} {
	return &txnState{w: w}
}

// Begin implements core.Scheme.
func (s *TwoPL) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	st.held = st.held[:0]
	st.granted = false
	if s.graph != nil {
		st.seq = s.graph.BeginTxn(tx.P)
	}
	if s.variant == WaitDie {
		tx.TS = s.alloc.Next(tx.P)
		st.ts = tx.TS
	}
	if s.variant == Adaptive {
		s.adaptTick(tx.P, st)
	}
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

// find returns st's record of its lock on (table, slot), or nil.
func (st *txnState) find(table, slot int) *heldLock {
	for i := range st.held {
		if h := &st.held[i]; int(h.table) == table && int(h.slot) == slot {
			return h
		}
	}
	return nil
}

// heldMode returns the mode st already holds on (table, slot), or modeFree.
func (st *txnState) heldMode(table, slot int) lockMode {
	if h := st.find(table, slot); h != nil {
		return h.mode
	}
	return modeFree
}

func (st *txnState) promote(table, slot int) {
	if h := st.find(table, slot); h != nil {
		h.mode = modeExcl
	}
}

// hold records a granted lock for release at transaction end.
func (st *txnState) hold(table, slot int, mode lockMode) {
	st.held = append(st.held, heldLock{table: int32(table), slot: int32(slot), mode: mode})
}

// Read implements core.Scheme: acquire a shared lock and read the named
// columns in place.
func (s *TwoPL) Read(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	if err := s.lock(tx, t, slot, modeShared); err != nil {
		return nil, err
	}
	// History capture: the shared lock excludes committers, fixing the
	// version this read observes.
	tx.CaptureRead(t, slot)
	tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(t.Schema.Width(cols)))
	return t.Row(slot), nil
}

// WriteRow implements core.Scheme: acquire an exclusive lock, capture an
// undo image of the whole row, and hand back the live row for in-place
// mutation of the named columns. The row stays exclusively locked until
// transaction end, so the caller's writes after return are isolated.
func (s *TwoPL) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	if err := s.lock(tx, t, slot, modeExcl); err != nil {
		return nil, err
	}
	// History capture: a write is a read-modify-write of the current
	// committed version (first declaration only; see captureRead).
	tx.CaptureRead(t, slot)
	row := t.Row(slot)
	// One undo image per (table, slot) suffices; repeated writes by the
	// same transaction keep the oldest image.
	if tx.Written(t, slot) == nil {
		img := tx.Alloc.Alloc(tx.P, stats.Manager, len(row))
		copy(img, row)
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(len(row))))
		tx.AddWrite(t, slot, row, img)
	}
	tx.P.MemWrite(stats.Useful, t.MemKey(slot), uint64(t.Schema.Width(cols)))
	return row, nil
}

// lock acquires (or upgrades to) the requested mode on (t, slot).
func (s *TwoPL) lock(tx *core.TxnCtx, t *storage.Table, slot int, want lockMode) error {
	st := tx.State.(*txnState)
	switch st.heldMode(t.ID, slot) {
	case modeExcl:
		return nil // X covers everything
	case modeShared:
		if want == modeShared {
			return nil
		}
		return s.upgrade(tx, st, t.ID, slot)
	}

	tl := &s.meta[t.ID]
	e := tl.entries.At(slot)
	tl.latches.Acquire(tx.P, stats.Manager, slot)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
	if compatible(e, want) {
		e.addHolder(st)
		e.mode = want
		st.hold(t.ID, slot, want)
		tl.latches.Release(tx.P, stats.Manager, slot)
		return nil
	}
	return s.conflict(tx, st, t.ID, slot, want, false)
}

// upgrade promotes st's shared lock to exclusive.
func (s *TwoPL) upgrade(tx *core.TxnCtx, st *txnState, table, slot int) error {
	tl := &s.meta[table]
	e := tl.entries.At(slot)
	tl.latches.Acquire(tx.P, stats.Manager, slot)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
	if e.soleHolder(st) {
		e.mode = modeExcl
		st.promote(table, slot)
		tl.latches.Release(tx.P, stats.Manager, slot)
		return nil
	}
	return s.conflict(tx, st, table, slot, modeExcl, true)
}

// compatible reports whether a new request of mode `want` can be granted
// immediately (FIFO fairness: not if anyone is already queued).
func compatible(e *lockEntry, want lockMode) bool {
	if len(e.waiters()) > 0 {
		return false
	}
	switch e.mode {
	case modeFree:
		return true
	case modeShared:
		return want == modeShared
	default:
		return false
	}
}

// conflict handles a denied request per the variant's policy. Called with
// the tuple latch held; always releases it.
func (s *TwoPL) conflict(tx *core.TxnCtx, st *txnState, table, slot int, want lockMode, upgrade bool) error {
	variant := s.variant
	if variant == Adaptive {
		// §6.1 hybrid: behave as NO_WAIT while this worker observes
		// thrashing, as DL_DETECT otherwise.
		if s.adaptiveNoWait(tx.P) {
			variant = NoWait
		} else {
			variant = DLDetect
		}
	}
	tl := &s.meta[table]
	switch variant {
	case NoWait:
		tl.latches.Release(tx.P, stats.Manager, slot)
		return tx.AbortWith(core.CauseNoWait)

	case WaitDie:
		// A lock upgrade with co-holders dies immediately: letting it
		// wait would break the old-waits-for-young invariant that
		// makes WAIT_DIE deadlock-free.
		if upgrade {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return tx.AbortWith(core.CauseWaitDie)
		}
		// Wait only if strictly older (smaller timestamp) than every
		// conflicting holder; otherwise die. Holder timestamps are
		// read through their txnState, which is stable for the
		// holder's lifetime and ordered by the tuple latch.
		for _, h := range tl.entries.At(slot).holders() {
			if tx.TS >= h.ts {
				tl.latches.Release(tx.P, stats.Manager, slot)
				return tx.AbortWith(core.CauseWaitDie)
			}
		}
		return s.wait(tx, st, table, slot, want, upgrade, NoTimeout)

	default: // DLDetect
		if s.opts.Timeout == 0 {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return tx.AbortWith(core.CauseLockTimeout)
		}
		return s.wait(tx, st, table, slot, want, upgrade, s.opts.Timeout)
	}
}

// wait enqueues st and blocks until granted, a deadlock is found, or the
// timeout expires. Called with the tuple latch held; releases it.
func (s *TwoPL) wait(tx *core.TxnCtx, st *txnState, table, slot int, want lockMode, upgrade bool, timeout uint64) error {
	p := tx.P
	tl := &s.meta[table]
	e := tl.entries.At(slot)
	sp := e.spilled()
	st.granted = false
	w := waiter{st: st, mode: want, upgrade: upgrade}
	switch {
	case s.variant == WaitDie:
		// Keep the queue youngest-first (descending timestamp) and
		// grant from the head: remaining (older) waiters then wait on
		// younger holders, preserving WAIT_DIE's old-waits-for-young
		// invariant across grants — the property that guarantees
		// freedom from deadlock.
		pos := len(sp.waiters)
		for i := range sp.waiters {
			if st.ts > sp.waiters[i].st.ts {
				pos = i
				break
			}
		}
		sp.waiters = append(sp.waiters, waiter{})
		copy(sp.waiters[pos+1:], sp.waiters[pos:])
		sp.waiters[pos] = w
	case upgrade:
		// Upgrades go to the head so a sole-holder promotion is never
		// starved behind incompatible requests. Shift in place rather
		// than rebuilding the slice, keeping the wait path allocation-
		// free once the queue's capacity has grown.
		sp.waiters = append(sp.waiters, waiter{})
		copy(sp.waiters[1:], sp.waiters)
		sp.waiters[0] = w
	default:
		sp.waiters = append(sp.waiters, w)
	}

	// Publish waits-for edges for the deadlock detector.
	if s.graph != nil {
		st.edgeBuf = st.edgeBuf[:0]
		for _, h := range sp.holders {
			if h == st {
				continue
			}
			st.edgeBuf = append(st.edgeBuf, waitgraph.Edge{Worker: h.w.P.ID(), Seq: h.seq})
		}
		// Other queued waiters may hold the lock before we do.
		for i := range sp.waiters {
			wt := sp.waiters[i].st
			if wt == st {
				continue
			}
			st.edgeBuf = append(st.edgeBuf, waitgraph.Edge{Worker: wt.w.P.ID(), Seq: wt.seq})
		}
	}
	tl.latches.Release(p, stats.Manager, slot)

	if s.graph != nil {
		s.graph.SetEdges(p, st.edgeBuf)
		if s.deadlockVictim(tx) {
			return s.cancelWait(tx, st, table, slot, core.CauseDeadlock)
		}
	}

	deadline := NoTimeout
	if timeout != NoTimeout {
		deadline = p.Now() + timeout
	}
	for {
		interval := uint64(costs.WaitCheckInterval)
		if deadline != NoTimeout {
			now := p.Now()
			if now >= deadline {
				return s.cancelWait(tx, st, table, slot, core.CauseLockTimeout)
			}
			if r := deadline - now; r < interval {
				interval = r
			}
		}
		p.ParkTimeout(stats.Wait, interval)

		tl.latches.Acquire(p, stats.Manager, slot)
		if st.granted {
			tl.latches.Release(p, stats.Manager, slot)
			if s.graph != nil {
				s.graph.ClearEdges(p)
			}
			return nil
		}
		tl.latches.Release(p, stats.Manager, slot)

		// Re-run detection: a cycle may have formed after we started
		// waiting (the paper: a deadlock missed by one pass "is
		// guaranteed to be found on subsequent passes").
		if s.graph != nil && s.deadlockVictim(tx) {
			return s.cancelWait(tx, st, table, slot, core.CauseDeadlock)
		}
	}
}

// deadlockVictim reports whether tx sits on a waits-for cycle AND is the
// cycle's designated victim. Every member of a cycle computes the same
// victim (the largest worker id in the membership), so one deadlock costs
// one abort; non-victims keep waiting for the victim's rollback to free
// the queue.
func (s *TwoPL) deadlockVictim(tx *core.TxnCtx) bool {
	cycle := s.graph.FindCycle(tx.P, tx.P.ID(), tx.State.(*txnState).seq)
	if cycle == nil {
		return false
	}
	victim := cycle[0]
	for _, w := range cycle[1:] {
		if w > victim {
			victim = w
		}
	}
	return victim == tx.P.ID()
}

// cancelWait removes st from the tuple's wait queue and aborts for cause,
// a deadlock or a timeout. If the grant raced ahead of the cancellation,
// the lock is accepted and released by the abort path.
func (s *TwoPL) cancelWait(tx *core.TxnCtx, st *txnState, table, slot int, cause core.AbortCause) error {
	p := tx.P
	tl := &s.meta[table]
	e := tl.entries.At(slot)
	tl.latches.Acquire(p, stats.Manager, slot)
	if !st.granted {
		q := e.spill.waiters // st queued here, so the spill exists
		for i := range q {
			if q[i].st == st {
				e.spill.waiters = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
	tl.latches.Release(p, stats.Manager, slot)
	if s.graph != nil {
		s.graph.ClearEdges(p)
	}
	// If granted anyway, the lock is in st.held only if it was an
	// upgrade; fresh grants record membership here so Abort releases it.
	if st.granted {
		st.granted = false
		// grantLocked already appended to holders and set the entry
		// mode; mirror it in our held list unless it is an upgrade
		// (already present).
		if st.heldMode(table, slot) == modeFree {
			st.hold(table, slot, e.mode)
		}
	}
	return tx.AbortWith(cause)
}

// grantLocked grants as many queued requests as compatibility allows.
// Caller holds the tuple latch.
func (s *TwoPL) grantLocked(p rt.Proc, e *lockEntry, table, slot int) {
	sp := e.spill
	if sp == nil {
		return // never contended: nobody is queued
	}
	for len(sp.waiters) > 0 {
		w := sp.waiters[0]
		if w.upgrade {
			// Grantable only when w's transaction is the sole holder.
			if e.soleHolder(w.st) {
				e.mode = modeExcl
				w.st.promote(table, slot)
				sp.waiters = append(sp.waiters[:0], sp.waiters[1:]...)
				w.st.granted = true
				s.db.RT.Unpark(p, w.st.w.P)
				continue
			}
			return
		}
		switch w.mode {
		case modeShared:
			if e.mode == modeExcl {
				return
			}
		case modeExcl:
			if len(sp.holders) > 0 {
				return
			}
		}
		sp.holders = append(sp.holders, w.st)
		e.mode = w.mode
		w.st.hold(table, slot, w.mode)
		sp.waiters = append(sp.waiters[:0], sp.waiters[1:]...)
		w.st.granted = true
		s.db.RT.Unpark(p, w.st.w.P)
		if w.mode == modeExcl {
			return
		}
	}
}

// releaseAll releases every lock st holds, granting waiters.
func (s *TwoPL) releaseAll(tx *core.TxnCtx, st *txnState) {
	p := tx.P
	for i := range st.held {
		table, slot := int(st.held[i].table), int(st.held[i].slot)
		tl := &s.meta[table]
		e := tl.entries.At(slot)
		tl.latches.Acquire(p, stats.Manager, slot)
		p.Tick(stats.Manager, costs.ManagerOp)
		e.dropHolder(st)
		if len(e.holders()) == 0 {
			e.mode = modeFree
		} else {
			e.mode = modeShared
		}
		s.grantLocked(p, e, table, slot)
		tl.latches.Release(p, stats.Manager, slot)
	}
	st.held = st.held[:0]
}

// Commit implements core.Scheme: strict 2PL just releases.
func (s *TwoPL) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	// Commit point: the log record is appended while the write locks are
	// still held, so log order is consistent with lock order.
	tx.LogCommit()
	s.releaseAll(tx, st)
	return nil
}

// Abort implements core.Scheme: restore undo images, then release.
func (s *TwoPL) Abort(tx *core.TxnCtx) {
	ws := tx.Writes()
	for i := len(ws) - 1; i >= 0; i-- {
		u := &ws[i]
		copy(u.Buf, u.Undo)
		tx.P.MemWrite(stats.Abort, u.T.MemKey(u.Slot), uint64(len(u.Undo)))
		tx.P.Tick(stats.Abort, costs.CopyCost(uint64(len(u.Undo))))
	}
	s.releaseAll(tx, tx.State.(*txnState))
}

// InitTuple implements core.Scheme: fresh tuples start unlocked, which is
// the zero lockEntry.
func (s *TwoPL) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {}

var _ core.Scheme = (*TwoPL)(nil)

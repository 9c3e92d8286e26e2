// Package hstore implements the H-STORE scheme (§2.2): T/O with
// partition-level locking. The database is split into disjoint partitions,
// each protected by a single coarse lock; a transaction must acquire the
// locks of every partition it will touch before it runs, which requires
// knowing the partition set up front (the engine's Txn.Partitions).
// Waiting transactions queue per partition in timestamp order, so the
// oldest transaction runs first (§2.2: the engine "grants it access to
// that partition if the transaction has the oldest timestamp in the
// queue").
//
// As in the paper's optimized implementation (§4.3 "Local Partitions"),
// partitions are logical: multi-partition transactions access remote
// partitions' tuples directly through shared memory once they hold the
// locks, instead of shipping query requests. Begin sorts and dedups the
// declared set and acquires the locks in ascending partition order, which
// makes the protocol deadlock-free whatever order a workload declares.
//
// With partition locks held there is no per-tuple concurrency control at
// all — no tuple latches, no copies — which is why H-STORE's overhead is
// so low on perfectly partitionable workloads (Fig. 14) and why a single
// multi-partition transaction stalls whole partitions (Fig. 15). Nothing
// but the transaction's own program logic (ErrUserAbort) can abort it, so
// a before-image is taken only for a transaction that declares it may
// roll back (core.MayRollBack); as in H-Store itself, one that cannot
// roll back keeps no undo log, and Abort panics if it rolls back anyway.
package hstore

import (
	"fmt"
	"slices"

	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// waiter is one queued transaction at a partition.
type waiter struct {
	ts uint64
	st *txnState
}

// partition is one coarse lock with a timestamp-ordered wait queue.
type partition struct {
	locked  bool
	waiters []waiter // kept sorted ascending by ts
}

// txnState is the reusable per-worker transaction state.
type txnState struct {
	w       *core.Worker
	held    []int // the declared partitions, sorted and distinct: the lock order
	granted bool
	undo    bool // the transaction may roll back: WriteRow keeps before-images
}

// HStore is the partition-locking scheme.
type HStore struct {
	method  tsalloc.Method
	db      *core.DB
	alloc   tsalloc.Allocator
	parts   []partition
	latches rt.Latches // latch i guards parts[i]
}

// New creates an H-STORE scheme drawing timestamps via method m.
func New(m tsalloc.Method) *HStore { return &HStore{method: m} }

// Name implements core.Scheme.
func (s *HStore) Name() string { return "HSTORE" }

// Setup implements core.Scheme.
func (s *HStore) Setup(db *core.DB) {
	s.db = db
	s.alloc = tsalloc.New(s.method, db.RT)
	s.parts = make([]partition, db.NParts)
	s.latches = db.RT.NewLatches(0x45<<40, slot.Fixed(db.NParts))
}

// NewTxnState implements core.Scheme.
func (s *HStore) NewTxnState(w *core.Worker) interface{} {
	return &txnState{w: w}
}

// Begin implements core.Scheme: allocate the scheduling timestamp, read
// whether the transaction may roll back, and lock every partition it
// declared, once each and in ascending order, whatever order and repeats
// it declared them in.
func (s *HStore) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	tx.TS = s.alloc.Next(tx.P)
	st.undo = core.MayRollBack(tx.Txn)
	st.held = append(st.held[:0], tx.Txn.Partitions()...)
	if len(st.held) == 0 {
		panic("hstore: transaction did not declare its partitions")
	}
	slices.Sort(st.held)
	st.held = slices.Compact(st.held)
	for _, pid := range st.held {
		s.lockPartition(tx, st, pid)
	}
}

// lockPartition blocks until partition pid is granted to st.
func (s *HStore) lockPartition(tx *core.TxnCtx, st *txnState, pid int) {
	p := tx.P
	pt := &s.parts[pid]
	s.latches.Acquire(p, stats.Manager, pid)
	p.Tick(stats.Manager, costs.ManagerOp)
	if !pt.locked && (len(pt.waiters) == 0 || tx.TS <= pt.waiters[0].ts) {
		pt.locked = true
		s.latches.Release(p, stats.Manager, pid)
		return
	}
	// Enqueue in timestamp order.
	st.granted = false
	pos := len(pt.waiters)
	for i := range pt.waiters {
		if tx.TS < pt.waiters[i].ts {
			pos = i
			break
		}
	}
	pt.waiters = append(pt.waiters, waiter{})
	copy(pt.waiters[pos+1:], pt.waiters[pos:])
	pt.waiters[pos] = waiter{ts: tx.TS, st: st}
	s.latches.Release(p, stats.Manager, pid)

	for {
		p.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
		s.latches.Acquire(p, stats.Manager, pid)
		if st.granted {
			st.granted = false
			s.latches.Release(p, stats.Manager, pid)
			return
		}
		s.latches.Release(p, stats.Manager, pid)
	}
}

// unlockPartition releases pid, granting the oldest waiter.
func (s *HStore) unlockPartition(tx *core.TxnCtx, pid int) {
	p := tx.P
	pt := &s.parts[pid]
	s.latches.Acquire(p, stats.Manager, pid)
	p.Tick(stats.Manager, costs.ManagerOp)
	if len(pt.waiters) > 0 {
		next := pt.waiters[0]
		copy(pt.waiters, pt.waiters[1:])
		pt.waiters = pt.waiters[:len(pt.waiters)-1]
		next.st.granted = true
		s.db.RT.Unpark(p, next.st.w.P)
		// Lock stays held, transferred to the waiter.
	} else {
		pt.locked = false
	}
	s.latches.Release(p, stats.Manager, pid)
}

// Read implements core.Scheme: with partition locks held, read the named
// columns in place with no per-tuple work at all.
func (s *HStore) Read(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	// History capture: the partition lock excludes every writer of this
	// slot (same partition), fixing the version this read observes.
	tx.CaptureRead(t, slot)
	tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(t.Schema.Width(cols)))
	return t.Row(slot), nil
}

// WriteRow implements core.Scheme: hand back the live row for in-place
// mutation of the named columns under the partition lock. The first write
// of a slot by a transaction that may roll back takes an undo image of
// the whole row; one that cannot roll back records the write with no
// image, and allocates and copies nothing.
func (s *HStore) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	// History capture: a write is a read-modify-write of the current
	// committed version.
	tx.CaptureRead(t, slot)
	row := t.Row(slot)
	if tx.Written(t, slot) == nil {
		var img []byte
		if tx.State.(*txnState).undo {
			img = tx.Alloc.Alloc(tx.P, stats.Manager, len(row))
			copy(img, row)
			tx.P.Tick(stats.Manager, costs.CopyCost(uint64(len(row))))
		}
		tx.AddWrite(t, slot, row, img)
	}
	tx.P.MemWrite(stats.Useful, t.MemKey(slot), uint64(t.Schema.Width(cols)))
	return row, nil
}

// Commit implements core.Scheme: release partitions.
func (s *HStore) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	// Commit point: log while the partitions are still locked, so log
	// order matches partition-lock order.
	tx.LogCommit()
	for _, pid := range st.held {
		s.unlockPartition(tx, pid)
	}
	st.held = st.held[:0]
	return nil
}

// Abort implements core.Scheme: restore undo images, release partitions.
// Only program logic aborts H-STORE transactions, so a write without an
// image is a transaction that declared it could not roll back and did:
// Abort panics rather than leave its writes in place.
func (s *HStore) Abort(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	ws := tx.Writes()
	for i := len(ws) - 1; i >= 0; i-- {
		u := &ws[i]
		if u.Undo == nil {
			panic(fmt.Sprintf("hstore: a transaction whose MayRollBack() is false rolled back after writing %s slot %d", u.T.Schema.Name, u.Slot))
		}
		copy(u.Buf, u.Undo)
		tx.P.MemWrite(stats.Abort, u.T.MemKey(u.Slot), uint64(len(u.Undo)))
		tx.P.Tick(stats.Abort, costs.CopyCost(uint64(len(u.Undo))))
	}
	for _, pid := range st.held {
		s.unlockPartition(tx, pid)
	}
	st.held = st.held[:0]
}

// InitTuple implements core.Scheme: nothing per-tuple under H-STORE.
func (s *HStore) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {}

var _ core.Scheme = (*HStore)(nil)

// Package mvcc implements multi-version timestamp ordering (MVCC in the
// paper, §2.2): every write creates a new version tagged with its writer's
// timestamp; a read is directed to the newest version whose write
// timestamp does not exceed the reader's — so "the DBMS does not reject a
// read operation because the element it targets has already been
// overwritten" (non-blocking reads, Fig. 13's story).
//
// Writes install *pending* versions at their timestamp position and
// finalize them at commit; a reader whose visible version is still pending
// waits for the writer to resolve it — the paper's "wait for a tuple whose
// value is not ready yet" (the WAIT component for T/O schemes). The write
// rule is classic MVTO: writing at ts aborts iff the preceding version has
// been read by a transaction later than ts (prev.rts > ts).
//
// Old versions are pruned using a watermark of the minimum active
// transaction timestamp, published per-worker through runtime counters.
// Each read request appending version history is also why the paper notes
// MVCC "increases memory traffic" (Fig. 17 discussion).
package mvcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// idleTS marks a worker with no transaction in flight.
const idleTS = ^uint64(0)

// gcEvery is how many transactions a worker runs between watermark
// refreshes; pruning itself happens opportunistically during writes.
const gcEvery = 64

// maxChain is the version-chain length that triggers opportunistic pruning.
const maxChain = 8

// version is one entry of a tuple's version chain, ordered by wts.
type version struct {
	wts     uint64
	rts     uint64
	data    []byte
	pending bool
	owner   *txnState
}

// entry is a tuple's version chain; its latch is element slot of the
// table's slab. The base (load-time) version is implicit until the first
// write materializes it: data in the table slab, write timestamp baseWTS,
// read timestamp baseRTS. A tuple nobody has written has no chain at all —
// versions stays nil until the first WriteRow carves one from the writer's
// pool — so a table costs 64 bytes per slot (72 with the latch) plus chains
// for the tuples actually written.
type entry struct {
	baseWTS  uint64
	baseRTS  uint64
	versions []version

	// waiters are parked readers/writers blocked on a pending version;
	// resolution wakes them all and they re-check.
	waiters []rt.Proc
}

// tableVersions is one table's MVCC state: the entry and the latch of slot
// i at index i of two parallel slabs.
type tableVersions struct {
	entries []entry
	latches rt.Latches
}

// pendingRec tracks a pending version for commit/abort.
type pendingRec struct {
	t    *storage.Table
	slot int
}

// txnState is the reusable per-worker transaction state.
type txnState struct {
	pending []pendingRec
	ntxn    uint64
	minTS   uint64 // cached GC watermark
}

// MVCC is the multi-version T/O scheme.
type MVCC struct {
	method tsalloc.Method
	db     *core.DB
	alloc  tsalloc.Allocator
	meta   []tableVersions // [table id]
	active []rt.Counter    // per-worker active transaction timestamp

	// free recycles version data buffers, one stack per (worker, table)
	// at index worker*ntables+table: a worker pushes buffers it unlinks
	// (abort withdrawals, pruned old versions) and pops them for new
	// versions. When a stack is empty, buffers are carved from the
	// worker's grow-only chunk (the paper's per-thread memory pools), so
	// the steady-state write path performs no per-version heap
	// allocation. Only worker w touches w's stacks and chunk; a buffer
	// is recycled only once no active transaction can reach its version
	// (abort: the version was pending and private; prune: the watermark
	// proves unreachability), so reuse can never be observed.
	free    [][][]byte
	chunks  []chunk
	ntables int
}

// chunk is one worker's bump allocator for fresh version buffers and for
// the initial chains of tuples it is first to write.
type chunk struct {
	buf    []byte
	off    int
	chains []version
}

// chunkSize is each refill of a worker's version-buffer pool.
const chunkSize = 1 << 18

// initialChain is the capacity a tuple's chain starts with (commit-time
// pruning keeps steady-state chains short, so it rarely grows), and
// chainsPerRefill how many of them one refill of a worker's pool holds.
const (
	initialChain    = 2
	chainsPerRefill = 1 << 10
)

// New creates an MVCC scheme drawing timestamps via method m.
func New(m tsalloc.Method) *MVCC { return &MVCC{method: m} }

// Name implements core.Scheme.
func (s *MVCC) Name() string { return "MVCC" }

// Setup implements core.Scheme.
func (s *MVCC) Setup(db *core.DB) {
	s.db = db
	s.alloc = tsalloc.New(s.method, db.RT)
	tables := db.Catalog.Tables()
	s.meta = make([]tableVersions, len(tables))
	for _, t := range tables {
		s.meta[t.ID] = tableVersions{
			entries: make([]entry, t.Capacity()),
			latches: db.RT.NewLatches(uint64(t.ID)<<44|0x33<<36, t.Capacity()),
		}
	}
	n := db.RT.NumProcs()
	s.active = make([]rt.Counter, n)
	for i := range s.active {
		s.active[i] = db.RT.NewCounter(0xAC<<40 | uint64(i))
	}
	s.ntables = len(tables)
	s.free = make([][][]byte, n*s.ntables)
	s.chunks = make([]chunk, n)
}

// getBuf pops a recycled version buffer for worker wid and table tid, or
// carves a fresh one from the worker's chunk. The caller overwrites the
// full buffer.
func (s *MVCC) getBuf(wid, tid, n int) []byte {
	k := wid*s.ntables + tid
	stack := s.free[k]
	if len(stack) > 0 {
		buf := stack[len(stack)-1]
		s.free[k] = stack[:len(stack)-1]
		return buf
	}
	c := &s.chunks[wid]
	if c.off+n > len(c.buf) {
		size := chunkSize
		if size < n {
			size = n
		}
		c.buf = make([]byte, size)
		c.off = 0
	}
	buf := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return buf
}

// newChain carves an empty chain of capacity initialChain from worker wid's
// pool, so a tuple's first versions do not allocate on the write path.
func (s *MVCC) newChain(wid int) []version {
	c := &s.chunks[wid]
	if len(c.chains) < initialChain {
		c.chains = make([]version, initialChain*chainsPerRefill)
	}
	chain := c.chains[:0:initialChain]
	c.chains = c.chains[initialChain:]
	return chain
}

// putBuf recycles an unlinked version buffer onto worker wid's stack.
func (s *MVCC) putBuf(wid, tid int, buf []byte) {
	k := wid*s.ntables + tid
	s.free[k] = append(s.free[k], buf)
}

// NewTxnState implements core.Scheme.
func (s *MVCC) NewTxnState(w *core.Worker) interface{} {
	return &txnState{minTS: 0}
}

// Begin implements core.Scheme.
func (s *MVCC) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	st.pending = st.pending[:0]
	tx.TS = s.alloc.Next(tx.P)
	s.active[tx.P.ID()].Store(tx.P, stats.Manager, tx.TS)
	st.ntxn++
	if st.ntxn%gcEvery == 0 {
		st.minTS = s.watermark(tx.P)
	}
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

// watermark scans the active-transaction table for the minimum timestamp.
// A stale (smaller) watermark only delays pruning, never unsafely prunes.
func (s *MVCC) watermark(p rt.Proc) uint64 {
	min := idleTS
	for _, c := range s.active {
		if v := c.Load(p, stats.Manager); v < min {
			min = v
		}
	}
	if min == idleTS {
		return 0
	}
	return min
}

// visible returns the index into e.versions of the newest version with
// wts <= ts, or -1 for the implicit base version, or -2 if even the base
// version is too new (an inserted tuple read at an earlier timestamp).
func (e *entry) visible(ts uint64) int {
	for i := len(e.versions) - 1; i >= 0; i-- {
		if e.versions[i].wts <= ts {
			return i
		}
	}
	if e.baseWTS <= ts {
		return -1
	}
	return -2
}

// wakeAll unparks every waiter on e. Caller holds the tuple latch.
func (s *MVCC) wakeAll(p rt.Proc, e *entry) {
	for _, w := range e.waiters {
		s.db.RT.Unpark(p, w)
	}
	e.waiters = e.waiters[:0]
}

// Read implements core.Scheme.
func (s *MVCC) Read(tx *core.TxnCtx, t *storage.Table, slot int) ([]byte, error) {
	st := tx.State.(*txnState)
	tl := &s.meta[t.ID]
	e := &tl.entries[slot]
	for {
		tl.latches.Acquire(tx.P, stats.Manager, slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		i := e.visible(tx.TS)
		if i == -2 {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, core.ErrAbort
		}
		if i == -1 {
			if e.baseRTS < tx.TS {
				e.baseRTS = tx.TS
			}
			// History capture: the base version's write timestamp (0 for
			// a loaded row, the inserter's TS for a runtime insert).
			tx.CaptureReadVer(t, slot, e.baseWTS)
			tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(t.Schema.RowSize()))
			row := t.Row(slot)
			tl.latches.Release(tx.P, stats.Manager, slot)
			return row, nil
		}
		v := &e.versions[i]
		if v.pending {
			if v.owner == st {
				data := v.data
				tl.latches.Release(tx.P, stats.Manager, slot)
				return data, nil // read own pending write
			}
			// The value at our timestamp is not ready yet: wait.
			e.waiters = append(e.waiters, tx.P)
			tl.latches.Release(tx.P, stats.Manager, slot)
			tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
			continue
		}
		if v.rts < tx.TS {
			v.rts = tx.TS
		}
		// History capture: this read observes the chain version stamped
		// v.wts.
		tx.CaptureReadVer(t, slot, v.wts)
		tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(t.Schema.RowSize()))
		data := v.data
		tl.latches.Release(tx.P, stats.Manager, slot)
		return data, nil
	}
}

// WriteRow implements core.Scheme: install a pending version at tx.TS and
// return its buffer (seeded with the preceding version's image) for the
// caller to mutate in place. The buffer stays private until Commit
// resolves the pending version — readers ordered after it wait, earlier
// ones are served older versions — so caller writes after return are
// isolated.
func (s *MVCC) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int) ([]byte, error) {
	st := tx.State.(*txnState)
	tl := &s.meta[t.ID]
	e := &tl.entries[slot]
	n := t.Schema.RowSize()
	for {
		tl.latches.Acquire(tx.P, stats.Manager, slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		i := e.visible(tx.TS)
		if i == -2 {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, core.ErrAbort
		}

		var prevRTS, prevWTS uint64
		var prevData []byte
		if i == -1 {
			prevRTS = e.baseRTS
			prevWTS = e.baseWTS
			prevData = t.Row(slot)
		} else {
			v := &e.versions[i]
			if v.pending {
				if v.owner == st {
					// Second write by the same transaction:
					// hand back the pending version again.
					data := v.data
					tx.P.MemWrite(stats.Useful, t.MemKey(slot), uint64(n))
					tl.latches.Release(tx.P, stats.Manager, slot)
					return data, nil
				}
				// A concurrent writer precedes us; its outcome
				// decides our fate. Wait for resolution.
				e.waiters = append(e.waiters, tx.P)
				tl.latches.Release(tx.P, stats.Manager, slot)
				tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
				continue
			}
			prevRTS = v.rts
			prevWTS = v.wts
			prevData = v.data
		}

		// MVTO write rule: a transaction later than ts already read
		// the preceding version — writing at ts would invalidate it.
		if prevRTS > tx.TS {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, core.ErrAbort
		}

		// This update is a read-modify-write: it *reads* the
		// preceding version, so bump that version's read timestamp.
		// Without this, an older RMW arriving later could slot its
		// version underneath ours and our increment would be lost.
		if i == -1 {
			if e.baseRTS < tx.TS {
				e.baseRTS = tx.TS
			}
		} else if v := &e.versions[i]; v.rts < tx.TS {
			v.rts = tx.TS
		}
		// History capture: the RMW reads the preceding version before
		// installing its own at tx.TS.
		tx.CaptureReadVer(t, slot, prevWTS)

		// Install the pending version (sorted position: after i).
		// The buffer comes from the worker's recycle stack when one is
		// available; the modeled allocation cost is charged either way
		// (the paper's DBMS pays its pool allocator on every version).
		buf := s.getBuf(tx.P.ID(), t.ID, n)
		copy(buf, prevData)
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n))+costs.AllocBase)
		tx.P.MemWrite(stats.Useful, t.MemKey(slot), uint64(n))
		nv := version{wts: tx.TS, data: buf, pending: true, owner: st}
		pos := i + 1
		if e.versions == nil {
			e.versions = s.newChain(tx.P.ID())
		}
		e.versions = append(e.versions, version{})
		copy(e.versions[pos+1:], e.versions[pos:])
		e.versions[pos] = nv

		if len(e.versions) > maxChain {
			s.prune(e, st.minTS, tx.P.ID(), t.ID)
		}
		tl.latches.Release(tx.P, stats.Manager, slot)
		st.pending = append(st.pending, pendingRec{t: t, slot: slot})
		return buf, nil
	}
}

// prune drops committed versions no active transaction can reach: every
// version strictly older than the newest version with wts <= watermark.
// Dropped buffers are recycled onto the pruning worker's stack — the
// watermark proves no active transaction can still be served from them.
// Caller holds the tuple latch.
func (s *MVCC) prune(e *entry, watermark uint64, wid, tid int) {
	keepFrom := -1
	for i := len(e.versions) - 1; i >= 0; i-- {
		if e.versions[i].wts <= watermark && !e.versions[i].pending {
			keepFrom = i
			break
		}
	}
	if keepFrom <= 0 {
		return
	}
	for i := 0; i < keepFrom; i++ {
		s.putBuf(wid, tid, e.versions[i].data)
	}
	// The version at keepFrom becomes the new floor; absorb its
	// predecessor's role by promoting it into the base.
	e.baseWTS = e.versions[keepFrom].wts
	e.versions = append(e.versions[:0], e.versions[keepFrom:]...)
}

// Commit implements core.Scheme: finalize pending versions.
func (s *MVCC) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	// Commit point: like TIMESTAMP, the version order is the timestamp
	// order, carried in the record's replay version.
	tx.LogCommit()
	for _, pr := range st.pending {
		tl := &s.meta[pr.t.ID]
		e := &tl.entries[pr.slot]
		tl.latches.Acquire(tx.P, stats.Manager, pr.slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		for i := range e.versions {
			if e.versions[i].pending && e.versions[i].owner == st {
				e.versions[i].pending = false
				e.versions[i].owner = nil
			}
		}
		// Opportunistic pruning under the latch already held: commits
		// are where versions become reclaimable, and pruning here (at
		// zero modeled cost — garbage collection is not part of the
		// paper's cost model) keeps chains short and recycles buffers
		// instead of waiting for a chain to hit maxChain.
		if len(e.versions) > 1 {
			s.prune(e, st.minTS, tx.P.ID(), pr.t.ID)
		}
		s.wakeAll(tx.P, e)
		tl.latches.Release(tx.P, stats.Manager, pr.slot)
	}
	st.pending = st.pending[:0]
	s.active[tx.P.ID()].Store(tx.P, stats.Manager, idleTS)
	return nil
}

// Abort implements core.Scheme: unlink pending versions, recycling their
// buffers (a pending version is private to its owner, so no other
// transaction can hold a reference).
func (s *MVCC) Abort(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	for _, pr := range st.pending {
		tl := &s.meta[pr.t.ID]
		e := &tl.entries[pr.slot]
		tl.latches.Acquire(tx.P, stats.Abort, pr.slot)
		tx.P.Tick(stats.Abort, costs.ManagerOp)
		for i := 0; i < len(e.versions); {
			if e.versions[i].pending && e.versions[i].owner == st {
				s.putBuf(tx.P.ID(), pr.t.ID, e.versions[i].data)
				e.versions = append(e.versions[:i], e.versions[i+1:]...)
				continue
			}
			i++
		}
		s.wakeAll(tx.P, e)
		tl.latches.Release(tx.P, stats.Abort, pr.slot)
	}
	st.pending = st.pending[:0]
	s.active[tx.P.ID()].Store(tx.P, stats.Abort, idleTS)
}

// InitTuple implements core.Scheme: the inserted tuple's base version is
// stamped with the inserting transaction's timestamp.
func (s *MVCC) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {
	s.meta[t.ID].entries[slot].baseWTS = tx.TS
}

// LatestCommitted returns the newest committed version's data for (t,
// slot). It takes no latch and is intended for post-run verification on a
// quiescent database (under MVCC the table slab holds only the base
// version; current state lives in the version chains).
func (s *MVCC) LatestCommitted(t *storage.Table, slot int) []byte {
	e := &s.meta[t.ID].entries[slot]
	for i := len(e.versions) - 1; i >= 0; i-- {
		if !e.versions[i].pending {
			return e.versions[i].data
		}
	}
	return t.Row(slot)
}

// TSOrderedCommits marks MVCC for the WAL: the newest committed version
// is the highest write timestamp, so commit records replay by version.
func (s *MVCC) TSOrderedCommits() {}

var (
	_ core.Scheme          = (*MVCC)(nil)
	_ core.TSOrderedScheme = (*MVCC)(nil)
)

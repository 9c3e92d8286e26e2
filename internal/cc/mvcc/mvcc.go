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
// Each read request appending version history is why the paper notes MVCC
// "increases memory traffic" (Fig. 17 discussion) — traffic, not memory
// held. At rest a tuple is one row buffer: its entry is the *floor* version,
// the oldest one any transaction may still be served, and versions above
// the floor live in a pooled hot part that exists only from a tuple's first
// uncollected write until the watermark — the minimum active transaction
// timestamp, published per worker through runtime counters — passes its
// newest committed version. Then fold makes that version the floor and
// unlinks everything beneath it, the previous floor included: the dead
// load-time row in the table slab becomes an ordinary version buffer. So
// resident state grows with the tuples being written now, not with the
// tuples ever written.
//
// Two rules make reclaiming safe against a transaction the watermark did
// not bound — one that publishes its timestamp after a scan with a smaller
// value than the scan returned (every batch allocator by design; natively
// also the window between drawing a timestamp and publishing it in Begin):
//
//   - fold never passes a pending version, and a transaction older than a
//     tuple's floor aborts (visible reports -2) instead of being served;
//   - an unlinked buffer waits in its worker's limbo, stamped with the new
//     floor's write timestamp, until a scan taken after the unlink reads a
//     watermark at or above the stamp. Whoever was handed the buffer had
//     published a timestamp below the stamp before the unlink, so that scan
//     sees it for as long as it runs.
//
// Garbage collection is not part of the paper's cost model: fold, the limbo
// and the quiet latch the collector takes bill nothing and leave the
// simulated schedule untouched.
package mvcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// idleTS marks a worker with no transaction in flight.
const idleTS = ^uint64(0)

// gcEvery is how many transactions a worker runs between watermark
// refreshes, each followed by a pass over its limbo and retire queue; folds
// also happen opportunistically at commit and on long chains, against the
// cached watermark.
const gcEvery = 64

// maxChain is the number of versions above the floor that triggers a fold
// on the write path.
const maxChain = 8

// version is one version of a tuple: its writer's timestamp, the latest
// timestamp it was read at, and its row. Only a floor version can have nil
// data: its row is then the tuple's row in the table slab (the load-time
// row, or the inserted row stamped by InitTuple).
type version struct {
	wts  uint64
	rts  uint64
	data []byte
}

// row returns the version's bytes, v being a version of (t, slot).
func (v *version) row(t *storage.Table, slot int) []byte {
	if v.data != nil {
		return v.data
	}
	return t.Row(slot)
}

// entry is a tuple at rest: its floor version and nothing else, so a table
// costs 48 bytes per loaded or inserted slot (56 with the latch, element slot
// of the table's latch array) whatever has been written to it. The floor's row is a plain slice
// rather than a bare pointer sized by the schema, which would save 16 of
// those bytes at the price of unsafe on the read path.
type entry struct {
	floor version
	hot   *hot
}

// hot is the part of a tuple that exists only while it is being written:
// the versions above the floor, ordered by wts, and the parked readers and
// writers blocked on a pending one (resolution wakes them all and they
// re-check). It comes from the first writer's pool and goes back to the
// pool of whoever folds or withdraws the last version; the slices keep what
// they grew to.
type hot struct {
	versions []hotVersion
	waiters  []rt.Proc
}

// hotVersion is a version above the floor. It is pending — installed, not
// yet committed, its data private to its writer — exactly while owner is
// set.
type hotVersion struct {
	version
	owner *txnState
}

// tableVersions is one table's MVCC state: the entry and the latch of slot
// i at index i of two parallel slot arrays laid out like the table's rows.
type tableVersions struct {
	entries slot.Array[entry]
	latches rt.Latches
}

// tupleRef is a retire-queue entry: a tuple and the version of it to fold,
// stamped with the timestamp its writer committed at.
type tupleRef struct {
	t    *storage.Table
	slot int
	wts  uint64
}

// limboBuf is an unlinked version buffer of table tid waiting for the
// watermark to reach stamp, the write timestamp of the floor that replaced
// it.
type limboBuf struct {
	buf   []byte
	tid   int
	stamp uint64
}

// txnState is the reusable per-worker transaction state. Its pending
// versions are the engine's write set.
type txnState struct {
	ntxn  uint64
	minTS uint64 // cached GC watermark
}

// pool is one worker's private memory (the paper's per-thread memory
// pools) and its share of the collector's work. Only the worker touches it,
// so the steady-state write path performs no heap allocation: buffers and
// hot parts circulate between the tuples and these stacks.
type pool struct {
	// free recycles version buffers, one stack per table. A buffer gets
	// here once nothing can reach it: an aborted pending version was
	// private to its writer; a folded one has served its time in limbo.
	free [][][]byte
	// chunk is the grow-only bump allocator fresh buffers are carved from
	// when a stack is empty, and off the carved prefix.
	chunk []byte
	off   int
	// hots are the idle hot parts.
	hots []*hot
	// limbo holds the buffers this worker's folds unlinked, and retire the
	// versions it committed that are not a floor yet: cold tuples are never
	// latched again, so the committer comes back for them.
	limbo  []limboBuf
	retire []tupleRef
}

// chunkSize caps each refill of a worker's version-buffer chunk. Refills
// start at rowsPerRefill rows of the table that ran dry and double from
// there, so a worker that writes little holds little.
const (
	chunkSize     = 1 << 18
	rowsPerRefill = 64
)

// hotsPerRefill is how many hot parts one refill of a worker's pool carves,
// each with room for hotVersions versions (folds keep chains short, so they
// rarely grow).
const (
	hotsPerRefill = 64
	hotVersions   = 2
)

// MVCC is the multi-version T/O scheme.
type MVCC struct {
	method tsalloc.Method
	db     *core.DB
	alloc  tsalloc.Allocator
	meta   []tableVersions // [table id]
	active rt.Counters     // [worker id] active transaction timestamp
	pools  []pool          // [worker id]
}

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
			entries: slot.Make[entry](t.Layout()),
			latches: db.RT.NewLatches(uint64(t.ID)<<44|0x33<<36, t.Layout()),
		}
	}
	n := db.RT.NumProcs()
	s.active = db.RT.NewCounters(0xAC<<40, slot.Fixed(n))
	s.pools = make([]pool, n)
	stacks := make([][][]byte, n*len(tables))
	for i := range s.pools {
		s.pools[i].free = stacks[i*len(tables) : (i+1)*len(tables)]
	}
}

// getBuf pops a recycled version buffer of table tid, or carves a fresh one
// of n bytes from the chunk. The caller overwrites the full buffer.
func (p *pool) getBuf(tid, n int) []byte {
	if stack := p.free[tid]; len(stack) > 0 {
		buf := stack[len(stack)-1]
		p.free[tid] = stack[:len(stack)-1]
		return buf
	}
	if p.off+n > len(p.chunk) {
		size := min(max(2*len(p.chunk), rowsPerRefill*n), chunkSize)
		p.chunk = make([]byte, max(size, n))
		p.off = 0
	}
	buf := p.chunk[p.off : p.off+n : p.off+n]
	p.off += n
	return buf
}

// putBuf recycles an unreachable version buffer of table tid.
func (p *pool) putBuf(tid int, buf []byte) {
	p.free[tid] = append(p.free[tid], buf)
}

// getHot pops an idle hot part, carving hotsPerRefill of them (and their
// version arrays, as one allocation each) when there is none, so a tuple's
// first write does not allocate.
func (p *pool) getHot() *hot {
	if len(p.hots) == 0 {
		hs := make([]hot, hotsPerRefill)
		vs := make([]hotVersion, hotsPerRefill*hotVersions)
		for i := range hs {
			hs[i].versions = vs[i*hotVersions : i*hotVersions : (i+1)*hotVersions]
			p.hots = append(p.hots, &hs[i])
		}
	}
	h := p.hots[len(p.hots)-1]
	p.hots = p.hots[:len(p.hots)-1]
	return h
}

// cool returns e's hot part to the pool once it holds neither a version nor
// a waiter. Caller holds the tuple latch.
func (p *pool) cool(e *entry) {
	if h := e.hot; len(h.versions) == 0 && len(h.waiters) == 0 {
		e.hot = nil
		p.hots = append(p.hots, h)
	}
}

// NewTxnState implements core.Scheme.
func (s *MVCC) NewTxnState(w *core.Worker) interface{} {
	return &txnState{minTS: 0}
}

// Begin implements core.Scheme.
func (s *MVCC) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	tx.TS = s.alloc.Next(tx.P)
	s.active.Store(tx.P, stats.Manager, tx.P.ID(), tx.TS)
	st.ntxn++
	if st.ntxn%gcEvery == 0 {
		st.minTS = s.watermark(tx.P)
		s.collect(tx.P, st.minTS)
	}
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

// watermark scans the active-transaction table for the minimum timestamp.
// A stale (smaller) watermark only delays folding. A larger one than some
// transaction's timestamp is possible — the scan cannot see a transaction
// that has drawn its timestamp and not published it, nor one that will
// draw a small timestamp later from a stale batch — and is what the package
// comment's two rules are for.
func (s *MVCC) watermark(p rt.Proc) uint64 {
	min := idleTS
	for i := range s.db.RT.NumProcs() {
		if v := s.active.Load(p, stats.Manager, i); v < min {
			min = v
		}
	}
	if min == idleTS {
		return 0
	}
	return min
}

// collect is the worker's garbage-collection pass, run on a watermark it has
// just scanned. Everything in the limbo was unlinked before that scan, so
// what the watermark has reached is free. Then the retire queue, which is in
// commit and so in timestamp order: each version the watermark has passed is
// folded into its tuple's floor under the quiet latch (a busy tuple keeps its
// place in the queue), and leaves the queue once the floor is at or above it
// — whatever the tuple still has above the floor then belongs to a later
// committer's queue. The pass stops at the first version the watermark has
// not passed, so a straggler holding the watermark back costs a growing
// queue, not a growing scan.
func (s *MVCC) collect(p rt.Proc, watermark uint64) {
	pl := &s.pools[p.ID()]
	limbo := pl.limbo[:0]
	for _, l := range pl.limbo {
		if l.stamp <= watermark {
			pl.putBuf(l.tid, l.buf)
		} else {
			limbo = append(limbo, l)
		}
	}
	pl.limbo = limbo

	q, busy, i := pl.retire, 0, 0
	for ; i < len(q) && q[i].wts <= watermark; i++ {
		r := q[i]
		tl := &s.meta[r.t.ID]
		if tl.latches.TryAcquireQuiet(p, r.slot) {
			e := tl.entries.At(r.slot)
			if e.hot != nil {
				pl.fold(e, watermark, r.t, r.slot)
			}
			done := e.floor.wts >= r.wts
			tl.latches.ReleaseQuiet(p, r.slot)
			if done {
				continue
			}
		}
		q[busy] = r
		busy++
	}
	pl.retire = append(q[:busy], q[i:]...)
}

// visible returns the index into e.hot.versions of the newest version with
// wts <= ts, or -1 for the floor version, or -2 if even the floor is too
// new: an inserted tuple read at an earlier timestamp, or a transaction the
// watermark did not bound reaching a tuple folded past it.
func (e *entry) visible(ts uint64) int {
	if h := e.hot; h != nil {
		for i := len(h.versions) - 1; i >= 0; i-- {
			if h.versions[i].wts <= ts {
				return i
			}
		}
	}
	if e.floor.wts <= ts {
		return -1
	}
	return -2
}

// wait parks tx behind e's pending version. Caller holds the tuple latch,
// which wait releases.
func (s *MVCC) wait(tx *core.TxnCtx, tl *tableVersions, e *entry, slot int) {
	e.hot.waiters = append(e.hot.waiters, tx.P)
	tl.latches.Release(tx.P, stats.Manager, slot)
	tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
}

// wakeAll unparks every waiter on e. Caller holds the tuple latch.
func (s *MVCC) wakeAll(p rt.Proc, e *entry) {
	h := e.hot
	for _, w := range h.waiters {
		s.db.RT.Unpark(p, w)
	}
	h.waiters = h.waiters[:0]
}

// Read implements core.Scheme: the visible version is read in place, and
// only the named columns are billed.
func (s *MVCC) Read(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	st := tx.State.(*txnState)
	tl := &s.meta[t.ID]
	e := tl.entries.At(slot)
	for {
		tl.latches.Acquire(tx.P, stats.Manager, slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		i := e.visible(tx.TS)
		if i == -2 {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, tx.AbortWith(core.CauseMVCCVersionGone)
		}
		v := &e.floor
		if i >= 0 {
			hv := &e.hot.versions[i]
			if hv.owner == st {
				data := hv.data
				tl.latches.Release(tx.P, stats.Manager, slot)
				return data, nil // read own pending write
			}
			if hv.owner != nil {
				// The value at our timestamp is not ready yet: wait.
				s.wait(tx, tl, e, slot)
				continue
			}
			v = &hv.version
		}
		if v.rts < tx.TS {
			v.rts = tx.TS
		}
		// History capture: this read observes the version stamped v.wts (0
		// for a loaded row, the inserter's TS for a runtime insert).
		tx.CaptureReadVer(t, slot, v.wts)
		tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(t.Schema.Width(cols)))
		data := v.row(t, slot)
		tl.latches.Release(tx.P, stats.Manager, slot)
		return data, nil
	}
}

// WriteRow implements core.Scheme: install a pending version at tx.TS and
// return its buffer (seeded with the preceding version's image) for the
// caller to mutate in place. The buffer stays private until Commit
// resolves the pending version — readers ordered after it wait, earlier
// ones are served older versions — so caller writes after return are
// isolated. The caller's stores land in that private buffer, whose copy
// is the billed store, so the named columns bill nothing more: the shared
// row is never written.
func (s *MVCC) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int, _ uint64) ([]byte, error) {
	st := tx.State.(*txnState)
	pl := &s.pools[tx.P.ID()]
	tl := &s.meta[t.ID]
	e := tl.entries.At(slot)
	n := t.Schema.RowSize()
	for {
		tl.latches.Acquire(tx.P, stats.Manager, slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		i := e.visible(tx.TS)
		if i == -2 {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, tx.AbortWith(core.CauseMVCCVersionGone)
		}

		prev := &e.floor // the preceding version
		if i >= 0 {
			hv := &e.hot.versions[i]
			if hv.owner == st {
				// Second write by the same transaction:
				// hand back the pending version again.
				data := hv.data
				tl.latches.Release(tx.P, stats.Manager, slot)
				return data, nil
			}
			if hv.owner != nil {
				// A concurrent writer precedes us; its outcome
				// decides our fate. Wait for resolution.
				s.wait(tx, tl, e, slot)
				continue
			}
			prev = &hv.version
		}

		// MVTO write rule: a transaction later than ts already read
		// the preceding version — writing at ts would invalidate it.
		if prev.rts > tx.TS {
			tl.latches.Release(tx.P, stats.Manager, slot)
			return nil, tx.AbortWith(core.CauseMVCCWriteTooLate)
		}

		// This update is a read-modify-write: it *reads* the
		// preceding version, so bump that version's read timestamp.
		// Without this, an older RMW arriving later could slot its
		// version underneath ours and our increment would be lost.
		if prev.rts < tx.TS {
			prev.rts = tx.TS
		}
		// History capture: the RMW reads the preceding version before
		// installing its own at tx.TS.
		tx.CaptureReadVer(t, slot, prev.wts)

		// Install the pending version (sorted position: after i).
		// The buffer comes from the worker's recycle stack when one is
		// available; the modeled allocation cost is charged either way
		// (the paper's DBMS pays its pool allocator on every version).
		buf := pl.getBuf(t.ID, n)
		copy(buf, prev.row(t, slot))
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n))+costs.AllocBase)
		h := e.hot
		if h == nil {
			h = pl.getHot()
			e.hot = h
		}
		pos := i + 1
		h.versions = append(h.versions, hotVersion{})
		copy(h.versions[pos+1:], h.versions[pos:])
		h.versions[pos] = hotVersion{version{wts: tx.TS, data: buf}, st}

		if len(h.versions) > maxChain {
			pl.fold(e, st.minTS, t, slot)
		}
		tl.latches.Release(tx.P, stats.Manager, slot)
		tx.AddWrite(t, slot, buf, nil)
		return buf, nil
	}
}

// fold makes the newest committed version at or below watermark e's floor
// and unlinks everything older, the previous floor included, into the
// limbo under the new floor's write timestamp; a slab row unlinked this way
// is from then on a version buffer of its table like any other. It stops
// below a pending version whatever the watermark says: the watermark may be
// ahead of that version's writer (see watermark), and its write must not be
// lost. A hot part left with nothing goes back to the pool. Caller holds
// the tuple latch and e is hot.
func (p *pool) fold(e *entry, watermark uint64, t *storage.Table, slot int) {
	h := e.hot
	top := -1 // the version to become the floor
	for i := range h.versions {
		if v := &h.versions[i]; v.owner != nil || v.wts > watermark {
			break
		}
		top = i
	}
	if top < 0 {
		return
	}
	stamp := h.versions[top].wts
	p.limbo = append(p.limbo, limboBuf{buf: e.floor.row(t, slot), tid: t.ID, stamp: stamp})
	for _, v := range h.versions[:top] {
		p.limbo = append(p.limbo, limboBuf{buf: v.data, tid: t.ID, stamp: stamp})
	}
	e.floor = h.versions[top].version
	h.versions = h.versions[:copy(h.versions, h.versions[top+1:])]
	p.cool(e)
}

// Commit implements core.Scheme: finalize pending versions.
func (s *MVCC) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	pl := &s.pools[tx.P.ID()]
	// Commit point: like TIMESTAMP, the version order is the timestamp
	// order, carried in the record's replay version.
	tx.LogCommit()
	for _, w := range tx.Writes() {
		tl := &s.meta[w.T.ID]
		e := tl.entries.At(w.Slot)
		tl.latches.Acquire(tx.P, stats.Manager, w.Slot)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		for i := range e.hot.versions {
			if e.hot.versions[i].owner == st {
				e.hot.versions[i].owner = nil
			}
		}
		s.wakeAll(tx.P, e)
		// Opportunistic fold under the latch already held (at zero
		// modeled cost — garbage collection is not part of the paper's
		// cost model). The cached watermark is rarely past the version
		// just committed; the worker's next collect pass comes back for
		// it.
		pl.fold(e, st.minTS, w.T, w.Slot)
		if e.floor.wts < tx.TS {
			pl.retire = append(pl.retire, tupleRef{t: w.T, slot: w.Slot, wts: tx.TS})
		}
		tl.latches.Release(tx.P, stats.Manager, w.Slot)
	}
	s.active.Store(tx.P, stats.Manager, tx.P.ID(), idleTS)
	return nil
}

// Abort implements core.Scheme: unlink pending versions, recycling their
// buffers at once (a pending version is private to its owner, so no other
// transaction can hold a reference).
func (s *MVCC) Abort(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	pl := &s.pools[tx.P.ID()]
	for _, w := range tx.Writes() {
		tl := &s.meta[w.T.ID]
		e := tl.entries.At(w.Slot)
		tl.latches.Acquire(tx.P, stats.Abort, w.Slot)
		tx.P.Tick(stats.Abort, costs.ManagerOp)
		h := e.hot
		for i := 0; i < len(h.versions); {
			if h.versions[i].owner == st {
				pl.putBuf(w.T.ID, h.versions[i].data)
				h.versions = append(h.versions[:i], h.versions[i+1:]...)
				continue
			}
			i++
		}
		s.wakeAll(tx.P, e)
		pl.cool(e)
		tl.latches.Release(tx.P, stats.Abort, w.Slot)
	}
	s.active.Store(tx.P, stats.Abort, tx.P.ID(), idleTS)
}

// InitTuple implements core.Scheme: the inserted tuple's floor version is
// its slab row, stamped with the inserting transaction's timestamp.
func (s *MVCC) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {
	s.meta[t.ID].entries.At(slot).floor.wts = tx.TS
}

// LatestCommitted returns the newest committed version's data for (t,
// slot). It takes no latch and is intended for post-run verification on a
// quiescent database (under MVCC a written tuple's current state is not in
// the table slab, and its slab row may be serving as another tuple's
// version).
func (s *MVCC) LatestCommitted(t *storage.Table, slot int) []byte {
	e := s.meta[t.ID].entries.At(slot)
	if h := e.hot; h != nil {
		for i := len(h.versions) - 1; i >= 0; i-- {
			if h.versions[i].owner == nil {
				return h.versions[i].data
			}
		}
	}
	return e.floor.row(t, slot)
}

// TSOrderedCommits marks MVCC for the WAL: the newest committed version
// is the highest write timestamp, so commit records replay by version.
func (s *MVCC) TSOrderedCommits() {}

var (
	_ core.Scheme          = (*MVCC)(nil)
	_ core.TSOrderedScheme = (*MVCC)(nil)
)

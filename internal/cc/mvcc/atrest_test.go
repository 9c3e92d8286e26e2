package mvcc

import (
	"testing"
	"unsafe"

	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
)

// The per-tuple entry is 48 bytes (the floor's two timestamps, its buffer as
// a slice, one pointer to the hot part) and a version above the floor as
// many (the same three words and its pending owner); a stray field shows up
// here as a one-line diff.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Fatalf("entry is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(hotVersion{}); got != 48 {
		t.Fatalf("hotVersion is %d bytes, want 48", got)
	}
}

// harness runs body as worker 0 of a one-core fixture, with bump and read as
// single-operation transactions.
func harness(t *testing.T, rows int, body func(scheme *MVCC, f *cctest.Fixture, p rt.Proc, bump, read func(slot int))) (*MVCC, *cctest.Fixture) {
	f := cctest.NewFixture(1, rows, 1)
	scheme := New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		bump := func(slot int) {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error { return f.Bump(tx, slot, 1) }}); err != nil {
				t.Errorf("bump of slot %d: %v", slot, err)
			}
		}
		read := func(slot int) {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error { _, err := f.ReadVal(tx, slot); return err }}); err != nil {
				t.Errorf("read of slot %d: %v", slot, err)
			}
		}
		body(scheme, f, p, bump, read)
	})
	return scheme, f
}

// TestFirstWriteTakesHotPartFromPool: a tuple has no hot part until its
// first write, which takes one with room for hotVersions versions from the
// writer's pool — two tuples first written by one worker get neighbouring
// pieces of one allocation — a chain that outgrows its piece moves away
// without touching the neighbour's, and once the watermark has passed both
// tuples their hot parts are back in the pool for the next first write.
func TestFirstWriteTakesHotPartFromPool(t *testing.T) {
	scheme, f := harness(t, 8, func(scheme *MVCC, f *cctest.Fixture, p rt.Proc, bump, read func(int)) {
		entries := scheme.meta[f.Table.ID].entries
		for i := 0; i < entries.Len(); i++ {
			if entries.At(i).hot != nil {
				t.Fatalf("slot %d has a hot part before any write", i)
			}
		}
		bump(0)
		bump(1)
		a, b := entries.At(0).hot, entries.At(1).hot
		if a == nil || b == nil {
			t.Fatal("a written tuple the watermark has not passed has no hot part")
		}
		if len(a.versions) != 1 || cap(a.versions) != hotVersions || len(b.versions) != 1 || cap(b.versions) != hotVersions {
			t.Fatalf("first chains: len/cap %d/%d and %d/%d, want 1/%d", len(a.versions), cap(a.versions), len(b.versions), cap(b.versions), hotVersions)
		}
		// The pool is a stack over one carved array, popped from its end.
		if uintptr(unsafe.Pointer(a))-uintptr(unsafe.Pointer(b)) != unsafe.Sizeof(hot{}) {
			t.Fatalf("hot parts are not neighbouring pieces of the worker's pool: %p, %p", a, b)
		}
		if entries.At(2).hot != nil {
			t.Fatal("an unwritten tuple grew a hot part")
		}
		// Nothing folds while the watermark is stale (it refreshes every
		// gcEvery transactions), so slot 0's chain outgrows its piece.
		first := &a.versions[0]
		for i := 0; i < hotVersions; i++ {
			bump(0)
		}
		p.Sync(stats.Useful, 0)
		if got := a.versions; entries.At(0).hot != a || len(got) != hotVersions+1 || &got[0] == first {
			t.Fatalf("slot 0: chain of %d at %p, want %d moved off the pool piece at %p", len(got), &got[0], hotVersions+1, first)
		}
		if got := b.versions; entries.At(1).hot != b || len(got) != 1 || cap(got) != hotVersions || got[0].owner != nil || got[0].wts == 0 {
			t.Fatalf("slot 1's chain was disturbed by its neighbour's growth: %+v", got)
		}
		if entries.At(0).floor.data != nil || entries.At(0).floor.wts != 0 {
			t.Fatalf("slot 0 folded under a watermark of 0: floor wts %d", entries.At(0).floor.wts)
		}
		// The next refresh passes every version committed so far.
		for i := 0; i < gcEvery; i++ {
			read(2)
		}
		for slot := 0; slot < 2; slot++ {
			if e := entries.At(slot); e.hot != nil || e.floor.data == nil || e.floor.wts == 0 {
				t.Fatalf("slot %d after a watermark refresh: hot part %p, floor buffer %p, floor wts %d; want a cold tuple whose floor is its last version", slot, e.hot, e.floor.data, e.floor.wts)
			}
		}
		bump(3)
		if h := entries.At(3).hot; h != a && h != b {
			t.Fatalf("the next first write carved a hot part at %p with %p and %p idle in the pool", h, a, b)
		}
	})
	for slot, want := range []uint64{hotVersions + 1, 1, 0, 1} {
		if got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, slot), 1); got != want {
			t.Fatalf("slot %d = %d, want %d", slot, got, want)
		}
	}
}

// TestTupleAtRestHasOneBuffer is the scheme's resident-state claim: once the
// watermark has passed a tuple's last write and one more refresh has emptied
// the limbo, the tuple is its entry and one row buffer — no hot part, nothing
// queued for it — however often it was written; and a worker's pool, once
// warm, feeds any number of further writes without growing, because every
// write returns the buffer it replaced.
func TestTupleAtRestHasOneBuffer(t *testing.T) {
	const rows, k = 256, 3
	scheme, f := harness(t, rows, func(scheme *MVCC, f *cctest.Fixture, p rt.Proc, bump, read func(int)) {
		entries := scheme.meta[f.Table.ID].entries
		pl := &scheme.pools[0]
		settle := func(when string) {
			for i := 0; i < 2*gcEvery; i++ { // two watermark refreshes, no writes
				read(i % rows)
			}
			for slot := 0; slot < rows; slot++ {
				if e := entries.At(slot); e.hot != nil || e.floor.data == nil {
					t.Fatalf("%s: slot %d at rest has hot part %p and floor buffer %p, want none and one", when, slot, e.hot, e.floor.data)
				}
			}
			if len(pl.limbo) != 0 || len(pl.retire) != 0 {
				t.Fatalf("%s: %d buffers in limbo and %d versions to retire with nothing written for two refreshes", when, len(pl.limbo), len(pl.retire))
			}
		}
		for i := 0; i < k*rows; i++ {
			bump(i % rows)
		}
		settle("after warm-up")
		for slot := 0; slot < rows; slot++ {
			if got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, slot), 1); got != k {
				t.Fatalf("slot %d = %d after %d bumps", slot, got, k)
			}
		}

		chunk, idleBufs, idleHots := &pl.chunk[0], len(pl.free[f.Table.ID]), len(pl.hots)
		for i := 0; i < 10_000; i++ {
			bump(i % rows)
		}
		settle("after 10000 more bumps")
		if &pl.chunk[0] != chunk {
			t.Error("a warm pool carved a new chunk")
		}
		if got := len(pl.free[f.Table.ID]); got != idleBufs {
			t.Errorf("%d idle buffers, %d before the bumps: a write did not return exactly the buffer it replaced", got, idleBufs)
		}
		if got := len(pl.hots); got != idleHots {
			t.Errorf("%d idle hot parts, %d before the bumps", got, idleHots)
		}
	})
	if got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, 0), 1); got != k+10_000/rows+1 {
		t.Fatalf("slot 0 = %d", got)
	}
}

// TestFoldStopsBelowPending: a watermark ahead of a pending version's writer
// (see watermark) must not carry the floor past that version — unlinking it
// would silently lose the write — nor past anything above it. The chain is
// built by hand: WriteRow never leaves a pending version beneath a committed
// one (each write raises its predecessor's read timestamp, so an older
// writer arriving later aborts), and fold is to be right without leaning on
// that.
func TestFoldStopsBelowPending(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	pl := &scheme.pools[0]
	e := scheme.meta[f.Table.ID].entries.At(0)
	n := f.Table.Schema.RowSize()
	owner := &txnState{}
	v3, v5, v9 := pl.getBuf(f.Table.ID, n), pl.getBuf(f.Table.ID, n), pl.getBuf(f.Table.ID, n)
	e.hot = pl.getHot()
	e.hot.versions = append(e.hot.versions,
		hotVersion{version{wts: 3, rts: 4, data: v3}, nil},
		hotVersion{version{wts: 5, data: v5}, owner},
		hotVersion{version{wts: 9, data: v9}, nil})

	pl.fold(e, 10, f.Table, 0)
	if f := e.floor; f.wts != 3 || f.rts != 4 || &f.data[0] != &v3[0] {
		t.Fatalf("floor is wts %d rts %d, want the committed version 3 (rts 4) beneath the pending one", f.wts, f.rts)
	}
	if h := e.hot; h == nil || len(h.versions) != 2 || h.versions[0].owner != owner || h.versions[1].wts != 9 {
		t.Fatalf("fold at watermark 10 passed the pending version 5: %+v", e.hot)
	}
	if len(pl.limbo) != 1 || &pl.limbo[0].buf[0] != &f.Table.Row(0)[0] || pl.limbo[0].stamp != 3 {
		t.Fatalf("limbo %+v, want the slab row alone, stamped 3", pl.limbo)
	}
	if got := scheme.LatestCommitted(f.Table, 0); &got[0] != &v9[0] {
		t.Fatal("the newest committed version is no longer version 9")
	}

	pl.fold(e, 10, f.Table, 0) // nothing new to fold: a no-op
	if e.floor.wts != 3 || len(e.hot.versions) != 2 || len(pl.limbo) != 1 {
		t.Fatalf("a second fold at the same watermark moved something: floor %d, %d versions, %d in limbo", e.floor.wts, len(e.hot.versions), len(pl.limbo))
	}

	e.hot.versions[0].owner = nil // the writer commits
	pl.fold(e, 10, f.Table, 0)
	if e.floor.wts != 9 || &e.floor.data[0] != &v9[0] || e.hot != nil {
		t.Fatalf("after the commit: floor wts %d, hot part %p; want 9 and none", e.floor.wts, e.hot)
	}
	if len(pl.limbo) != 3 || pl.limbo[1].stamp != 9 || pl.limbo[2].stamp != 9 {
		t.Fatalf("limbo %+v, want versions 3 and 5 added under stamp 9", pl.limbo)
	}
}

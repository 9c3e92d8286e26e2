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

// The per-tuple entry is 64 bytes; a stray field shows up here as a one-line
// diff.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 64 {
		t.Fatalf("entry is %d bytes, want 64", got)
	}
}

// TestFirstWriteCarvesChainFromPool: a tuple has no chain until its first
// write, which takes an initialChain-slot one from the writer's pool — two
// tuples first written by one worker get neighbouring pieces of one
// allocation — and a chain that outgrows its piece moves away without
// touching the neighbour's.
func TestFirstWriteCarvesChainFromPool(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	entries := scheme.meta[f.Table.ID].entries
	for i := range entries {
		if entries[i].versions != nil {
			t.Fatalf("slot %d has a version chain before any write", i)
		}
	}
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		bump := func(slot int) {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error { return f.Bump(tx, slot, 1) }}); err != nil {
				t.Errorf("bump of slot %d: %v", slot, err)
			}
		}
		bump(0)
		bump(1)
		a, b := entries[0].versions, entries[1].versions
		if len(a) != 1 || cap(a) != initialChain || len(b) != 1 || cap(b) != initialChain {
			t.Fatalf("first chains: len/cap %d/%d and %d/%d, want 1/%d", len(a), cap(a), len(b), cap(b), initialChain)
		}
		if uintptr(unsafe.Pointer(&b[0]))-uintptr(unsafe.Pointer(&a[0])) != initialChain*unsafe.Sizeof(version{}) {
			t.Fatalf("first chains are not neighbouring pieces of the worker's pool: %p, %p", &a[0], &b[0])
		}
		if entries[2].versions != nil {
			t.Fatal("an unwritten tuple grew a chain")
		}
		// Nothing is pruned while the watermark is stale (it refreshes every
		// gcEvery transactions), so slot 0's chain outgrows its piece.
		for i := 0; i < initialChain; i++ {
			bump(0)
		}
		p.Sync(stats.Useful, 0)
		if got := entries[0].versions; len(got) != initialChain+1 || &got[0] == &a[0] {
			t.Fatalf("slot 0: chain of %d at %p, want %d moved off the pool piece at %p", len(got), &got[0], initialChain+1, &a[0])
		}
		if got := entries[1].versions; len(got) != 1 || &got[0] != &b[0] || got[0].pending || got[0].wts == 0 {
			t.Fatalf("slot 1's chain was disturbed by its neighbour's growth: %+v", got)
		}
	})
	if got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, 0), 1); got != initialChain+1 {
		t.Fatalf("slot 0 = %d, want %d", got, initialChain+1)
	}
	if got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, 1), 1); got != 1 {
		t.Fatalf("slot 1 = %d, want 1", got)
	}
}

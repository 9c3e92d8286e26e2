package index_test

import (
	"testing"
	"testing/quick"

	"abyss1000/internal/index"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
)

func buildTable(n int) (*sim.Engine, *storage.Table) {
	eng := sim.New(4, 1)
	schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
	tab := storage.NewTable(0, schema, n, n, 4)
	return eng, tab
}

func TestLookupAfterLoadInsert(t *testing.T) {
	eng, tab := buildTable(1000)
	idx := index.New(eng, tab, 256)
	for i := 0; i < 1000; i++ {
		idx.LoadInsert(uint64(i*7), i)
	}
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		for i := 0; i < 1000; i++ {
			slot, ok := idx.Lookup(p, uint64(i*7))
			if !ok || slot != i {
				t.Errorf("lookup(%d) = %d,%v", i*7, slot, ok)
				return
			}
		}
		if _, ok := idx.Lookup(p, 999_999); ok {
			t.Error("found a key never inserted")
		}
	})
}

func TestInsertRemove(t *testing.T) {
	eng, tab := buildTable(100)
	idx := index.New(eng, tab, 16)
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		idx.Insert(p, 42, 7)
		if slot, ok := idx.Lookup(p, 42); !ok || slot != 7 {
			t.Errorf("lookup after insert = %d,%v", slot, ok)
		}
		if !idx.Remove(p, 42, 7) {
			t.Error("remove reported nothing removed")
		}
		if _, ok := idx.Lookup(p, 42); ok {
			t.Error("key present after removal")
		}
		if idx.Remove(p, 42, 7) {
			t.Error("second removal should be a no-op")
		}
	})
}

func TestConcurrentInsertsAllVisible(t *testing.T) {
	eng, tab := buildTable(4096)
	idx := index.New(eng, tab, 64) // few buckets: force latch contention
	const perWorker = 100
	eng.Run(func(p rt.Proc) {
		base := p.ID() * perWorker
		for i := 0; i < perWorker; i++ {
			idx.Insert(p, uint64(base+i), base+i)
		}
	})
	// Verify sequentially after the run.
	count := 0
	for k := 0; k < 4*perWorker; k++ {
		if slot, ok := idx.LoadLookup(uint64(k)); ok && slot == k {
			count++
		}
	}
	if count != 4*perWorker {
		t.Fatalf("only %d/%d inserts visible", count, 4*perWorker)
	}
}

func TestIndexTimeBilledToIndexComponent(t *testing.T) {
	eng, tab := buildTable(100)
	idx := index.New(eng, tab, 16)
	idx.LoadInsert(1, 1)
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		idx.Lookup(p, 1)
		if p.Stats().Get(stats.Index) == 0 {
			t.Error("lookup billed nothing to INDEX")
		}
		if p.Stats().Get(stats.Manager) != 0 {
			t.Error("lookup leaked cycles into MANAGER")
		}
	})
}

func TestCompositeKeyInjective(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		k1 := index.CompositeKey(uint64(a), uint64(b), uint64(c), uint64(d))
		k2 := index.CompositeKey(uint64(a), uint64(b), uint64(c), uint64(d))
		if k1 != k2 {
			return false
		}
		// Different tuples must map to different keys.
		k3 := index.CompositeKey(uint64(a)+1, uint64(b), uint64(c), uint64(d))
		return k1 != k3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if index.CompositeKey(1, 2, 3, 4) != 1<<48|2<<32|3<<16|4 {
		t.Fatal("packing layout changed")
	}
}

func TestBucketCountRoundsUp(t *testing.T) {
	eng, tab := buildTable(10)
	idx := index.New(eng, tab, 3) // rounds to 4
	// Inserting with many distinct keys must still work.
	idx.LoadInsert(1, 1)
	idx.LoadInsert(2, 2)
	idx.LoadInsert(3, 3)
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		for k := 1; k <= 3; k++ {
			if slot, ok := idx.Lookup(p, uint64(k)); !ok || slot != k {
				t.Errorf("lookup(%d) = %d,%v", k, slot, ok)
			}
		}
	})
}

package index_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/slot"
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

// TestHashAgainstMapModel drives a seeded interleaving of inserts, removes,
// re-inserts of freed slots, lookups and full ranges against a map from slot
// to key (a slot is mapped at most once, so the slot is the model's key).
// Keys come from a small space, so distinct slots share keys and chains
// share buckets; the shapes put the table on either side of the bucket count.
func TestHashAgainstMapModel(t *testing.T) {
	shapes := []struct {
		name                   string
		slots, loaded, buckets int
		keySpace, steps        int
	}{
		{"table-smaller-than-buckets", 48, 48, 256, 64, 4000},
		{"table-larger-than-buckets", 600, 600, 8, 200, 6000},
		// Chains run between loaded rows and three insert pages, the last short.
		{"paged-insert-region", 3*slot.PageSlots - 7, 100, 64, 2000, 12000},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			run := native.New(1, 1)
			p := run.Proc(0)
			schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
			idx := index.New(run, storage.NewTable(0, schema, sh.slots, sh.loaded, 1), sh.buckets)
			model := map[int]uint64{}
			rng := rand.New(rand.NewSource(int64(sh.slots)))
			check := func(key uint64) {
				t.Helper()
				slot, ok := idx.Lookup(p, key)
				if ok && model[slot] != key {
					t.Fatalf("Lookup(%d) = slot %d, which the model maps under %d", key, slot, model[slot])
				}
				if _, mapped := model[slot]; ok && !mapped {
					t.Fatalf("Lookup(%d) = slot %d, which is not mapped", key, slot)
				}
				present := false
				for _, k := range model {
					present = present || k == key
				}
				if ok != present {
					t.Fatalf("Lookup(%d) found = %v, model says %v", key, ok, present)
				}
			}
			for step := 0; step < sh.steps; step++ {
				slot, key := rng.Intn(sh.slots), uint64(rng.Intn(sh.keySpace))
				switch k, mapped := model[slot]; {
				case !mapped && step%2 == 0:
					idx.Insert(p, key, slot)
					model[slot] = key
				case !mapped:
					idx.LoadInsert(key, slot)
					model[slot] = key
				case rng.Intn(3) == 0:
					if idx.Remove(p, k+1, slot) {
						t.Fatalf("Remove(%d, %d) removed a mapping held under key %d", k+1, slot, k)
					}
				default:
					if !idx.Remove(p, k, slot) {
						t.Fatalf("Remove(%d, %d) found nothing", k, slot)
					}
					delete(model, slot)
					key = k
				}
				check(key)
				if step%500 == 0 {
					seen := map[int]uint64{}
					idx.Range(func(key uint64, slot int) {
						if _, dup := seen[slot]; dup {
							t.Fatalf("Range visited slot %d twice", slot)
						}
						seen[slot] = key
					})
					if len(seen) != len(model) {
						t.Fatalf("Range visited %d mappings, model holds %d", len(seen), len(model))
					}
					for slot, key := range model {
						if seen[slot] != key {
							t.Fatalf("Range gave slot %d key %d, model says %d", slot, seen[slot], key)
						}
					}
				}
			}
		})
	}
}

// TestHashSlotContractPanics: a slot outside the table and a slot mapped
// twice are caller bugs, reported by a panic that names the index's table.
func TestHashSlotContractPanics(t *testing.T) {
	run := native.New(1, 1)
	schema := storage.NewSchema("ACCOUNTS", storage.Col{Name: "K", Width: 8})
	idx := index.New(run, storage.NewTable(0, schema, 10, 10, 1), 4)
	idx.LoadInsert(7, 3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "ACCOUNTS") {
				t.Errorf("%s: panic %q does not name the table", name, msg)
			}
		}()
		f()
	}
	mustPanic("double mapping", func() { idx.LoadInsert(8, 3) })
	mustPanic("double mapping, same key", func() { idx.Insert(run.Proc(0), 7, 3) })
	mustPanic("slot past capacity", func() { idx.LoadInsert(9, 10) })
	mustPanic("negative slot", func() { idx.LoadInsert(9, -1) })
	if slot, ok := idx.LoadLookup(7); !ok || slot != 3 {
		t.Fatalf("refused inserts disturbed the index: LoadLookup(7) = %d, %v", slot, ok)
	}
}

// TestHashAddressesTheLastSlot: chain links are slot+1 in an int32, so the
// largest table a hash index accepts has its last slot reachable, at either
// end of a chain, and removable.
func TestHashAddressesTheLastSlot(t *testing.T) {
	run := native.New(1, 1)
	p := run.Proc(0)
	schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
	last := storage.MaxCapacity - 1
	idx := index.New(run, storage.NewTable(0, schema, storage.MaxCapacity, 0, 1), 1) // one chain
	idx.LoadInsert(1, last)
	idx.Insert(p, 2, 0)
	idx.Insert(p, 3, last-1)
	for key, want := range map[uint64]int{1: last, 2: 0, 3: last - 1} {
		if got, ok := idx.Lookup(p, key); !ok || got != want {
			t.Fatalf("Lookup(%d) = %d, %v; want %d", key, got, ok, want)
		}
	}
	if !idx.Remove(p, 1, last) || !idx.Remove(p, 3, last-1) {
		t.Fatal("Remove missed a high slot")
	}
	if _, ok := idx.Lookup(p, 1); ok {
		t.Fatal("removed high slot still found")
	}
	if got, ok := idx.Lookup(p, 2); !ok || got != 0 {
		t.Fatalf("Lookup(2) = %d, %v after removing its neighbours", got, ok)
	}
}

// TestHashConcurrentInsertsNative is TestConcurrentInsertsAllVisible on real
// goroutines, for the race detector: four workers insert disjoint slots,
// look each key up and probe for a key never inserted, so neighbouring
// elements of the per-slot arrays are written under different latches at the
// same time. The table has no loaded rows, so the buckets and their latches
// are paged in on first use: with eight buckets all keys share one page;
// with sixteen pages of buckets the keys are aimed at three shared pages and
// the absent probes at a fourth, so the first touches of every page of heads
// and latches race each other.
func TestHashConcurrentInsertsNative(t *testing.T) {
	const workers, perWorker = 4, 500
	for _, c := range []struct {
		name       string
		buckets    int
		pages      []int // the bucket pages the inserted keys hash to
		absentPage int   // the bucket page the absent keys hash to
	}{
		{"buckets=8", 8, []int{0}, 0},
		{"buckets=16-pages", 16 * slot.PageSlots, []int{0, 5, 9}, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			var keys, absent []uint64 // keys[s] is slot s's key
			for k := uint64(0); len(keys) < workers*perWorker || len(absent) < perWorker; k++ {
				switch pg := index.Bucket(k, c.buckets) / slot.PageSlots; {
				case slices.Contains(c.pages, pg) && len(keys) < workers*perWorker:
					keys = append(keys, k)
				case pg == c.absentPage && len(absent) < perWorker:
					absent = append(absent, k)
				}
			}
			run := native.New(workers, 1)
			schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
			idx := index.New(run, storage.NewTable(0, schema, workers*perWorker, 0, workers), c.buckets)
			run.Run(func(p rt.Proc) {
				for i := 0; i < perWorker; i++ {
					s := i*workers + p.ID() // interleaved: adjacent slots belong to different workers
					idx.Insert(p, keys[s], s)
					if got, ok := idx.Lookup(p, keys[s]); !ok || got != s {
						t.Errorf("worker %d: Lookup after Insert = %d, %v; want %d", p.ID(), got, ok, s)
						return
					}
					if got, ok := idx.Lookup(p, absent[i]); ok {
						t.Errorf("worker %d: found never-inserted key %d at slot %d", p.ID(), absent[i], got)
						return
					}
				}
			})
			n := 0
			idx.Range(func(key uint64, s int) {
				if key != keys[s] {
					t.Fatalf("slot %d mapped under %d, want %d", s, key, keys[s])
				}
				n++
			})
			if n != workers*perWorker {
				t.Fatalf("%d mappings after the run, want %d", n, workers*perWorker)
			}
		})
	}
}

package index_test

import (
	"math/rand"
	"sort"
	"testing"

	"abyss1000/internal/index"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
)

func buildOrdered(n int) (*sim.Engine, *index.Ordered) {
	eng := sim.New(4, 1)
	schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
	tab := storage.NewTable(0, schema, n, n, 4)
	return eng, index.NewOrdered(eng, tab)
}

// TestOrderedAgainstSortedSlice cross-checks random inserts, removes and
// range scans against a sorted reference slice.
func TestOrderedAgainstSortedSlice(t *testing.T) {
	eng, idx := buildOrdered(1 << 16)
	rng := rand.New(rand.NewSource(99))
	type kv struct {
		k uint64
		s int
	}
	var ref []kv
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(4000)) // dense: plenty of duplicates
		idx.LoadInsert(k, i)
		ref = append(ref, kv{k, i})
	}
	// Remove a third of them.
	rng.Shuffle(len(ref), func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
	cut := len(ref) / 3
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		for _, e := range ref[:cut] {
			if !idx.Remove(p, e.k, e.s) {
				t.Errorf("remove(%d, %d) found nothing", e.k, e.s)
				return
			}
		}
		ref = ref[cut:]
		sort.Slice(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
		if idx.Len() != len(ref) {
			t.Errorf("Len = %d, want %d", idx.Len(), len(ref))
		}
		for trial := 0; trial < 200; trial++ {
			lo := uint64(rng.Intn(4200))
			hi := lo + uint64(rng.Intn(500))
			got := idx.RangeScan(p, lo, hi, nil)
			var want []kv
			for _, e := range ref {
				if e.k >= lo && e.k <= hi {
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("scan [%d,%d]: %d entries, want %d", lo, hi, len(got), len(want))
			}
			for i, g := range got {
				if g.Key != want[i].k {
					t.Fatalf("scan [%d,%d] entry %d: key %d, want %d", lo, hi, i, g.Key, want[i].k)
				}
				if i > 0 && got[i-1].Key > g.Key {
					t.Fatalf("scan [%d,%d] not ascending at %d", lo, hi, i)
				}
			}
		}
	})
}

// TestOrderedScanSlotsMatch verifies key→slot fidelity with unique keys
// plus limit and lookup behaviour.
func TestOrderedScanSlotsMatch(t *testing.T) {
	eng, idx := buildOrdered(4096)
	perm := rand.New(rand.NewSource(7)).Perm(2000)
	for _, k := range perm {
		idx.LoadInsert(uint64(k)*3, k)
	}
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		got := idx.RangeScan(p, 30, 60, nil)
		if len(got) != 11 {
			t.Fatalf("scan [30,60] over multiples of 3: %d entries, want 11", len(got))
		}
		for i, e := range got {
			if e.Key != uint64(30+3*i) || int(e.Slot)*3 != int(e.Key) {
				t.Fatalf("entry %d = {%d, %d}", i, e.Key, e.Slot)
			}
		}
		lim := idx.RangeScanLimit(p, 0, 1<<62, 5, nil)
		if len(lim) != 5 || lim[0].Key != 0 || lim[4].Key != 12 {
			t.Fatalf("limit scan = %v", lim)
		}
		if s, ok := idx.Lookup(p, 1500); !ok || s != 500 {
			t.Fatalf("Lookup(1500) = %d, %v", s, ok)
		}
		if _, ok := idx.Lookup(p, 1501); ok {
			t.Fatal("Lookup found a key never inserted")
		}
		if got := idx.RangeScan(p, 100, 99, nil); len(got) != 0 {
			t.Fatalf("empty range returned %d entries", len(got))
		}
	})
	// LoadLookup needs no proc.
	if s, ok := idx.LoadLookup(300); !ok || s != 100 {
		t.Fatalf("LoadLookup(300) = %d, %v", s, ok)
	}
}

// TestOrderedConcurrentInserts drives latched inserts from all workers and
// verifies every entry is present and ordered afterwards.
func TestOrderedConcurrentInserts(t *testing.T) {
	eng, idx := buildOrdered(4096)
	const perWorker = 200
	eng.Run(func(p rt.Proc) {
		base := p.ID() * perWorker
		for i := 0; i < perWorker; i++ {
			idx.Insert(p, uint64(base+i), base+i)
		}
	})
	if idx.Len() != 4*perWorker {
		t.Fatalf("Len = %d, want %d", idx.Len(), 4*perWorker)
	}
	prev, n := -1, 0
	idx.Range(func(key uint64, slot int) {
		if int(key) != slot || int(key) <= prev {
			t.Fatalf("entry {%d, %d} after key %d", key, slot, prev)
		}
		prev = int(key)
		n++
	})
	if n != 4*perWorker {
		t.Fatalf("Range visited %d entries, want %d", n, 4*perWorker)
	}
}

// TestOrderedScanBilledToIndexComponent pins the cost model: scans and
// inserts bill the INDEX component and nothing else.
func TestOrderedScanBilledToIndexComponent(t *testing.T) {
	eng, idx := buildOrdered(256)
	for i := 0; i < 100; i++ {
		idx.LoadInsert(uint64(i), i)
	}
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		before := p.Stats().Get(stats.Index)
		idx.RangeScan(p, 10, 40, nil)
		mid := p.Stats().Get(stats.Index)
		if mid == before {
			t.Error("scan billed nothing to INDEX")
		}
		idx.Insert(p, 1000, 100)
		if p.Stats().Get(stats.Index) == mid {
			t.Error("insert billed nothing to INDEX")
		}
		if p.Stats().Get(stats.Manager) != 0 {
			t.Error("ordered index leaked cycles into MANAGER")
		}
	})
}

// TestOrderedLookupFindsSeparatorKeys: a key equal to an inner-node
// separator is the first entry of the right sibling a split produced, one
// leaf past where the low descent lands. Point probes must follow the
// chain there like scans do — recovery's idempotence rule ("publish unless
// the key is already present") depends on it.
func TestOrderedLookupFindsSeparatorKeys(t *testing.T) {
	const n = 4096 // several levels at fanout 32, so hundreds of separators
	eng, idx := buildOrdered(n)
	for k := 0; k < n; k++ {
		idx.LoadInsert(uint64(k)*3, k)
	}
	for k := 0; k < n; k++ {
		if slot, ok := idx.LoadLookup(uint64(k) * 3); !ok || slot != k {
			t.Fatalf("LoadLookup(%d) = %d, %v; want %d", k*3, slot, ok, k)
		}
		if _, ok := idx.LoadLookup(uint64(k)*3 + 1); ok {
			t.Fatalf("LoadLookup(%d) found an absent key", k*3+1)
		}
	}
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		for k := 0; k < n; k++ {
			if slot, ok := idx.Lookup(p, uint64(k)*3); !ok || slot != k {
				t.Errorf("Lookup(%d) = %d, %v; want %d", k*3, slot, ok, k)
				return
			}
		}
	})
}

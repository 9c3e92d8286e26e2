package index_test

import (
	"math/rand"
	"runtime"
	"testing"

	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/storage"
)

// Index-layer microbenchmarks: one operation per iteration on the native
// runtime (a latch is a mutex, Tick a counter bump), one worker, so the
// numbers are the structure's own cost. Run with -benchmem: B/op and
// allocs/op are exact — the hash index allocates nothing (TestHashAllocFree)
// and an ordered insert stays far below one allocation (a leaf chunk per 64
// leaf splits, an inner node per inner split); ns/op on a shared host is
// advisory. BENCH_index.json records the trajectory.

var benchSink int

func benchTable(capacity int) (*native.Runtime, *storage.Table) {
	schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
	return native.New(1, 1), storage.NewTable(0, schema, capacity, capacity, 1)
}

// benchKey spreads slot numbers over the key space like the workloads'
// composite keys do, so chains are not artificially perfect.
func benchKey(slot int) uint64 { return uint64(slot) * 0x9e3779b1 }

// hashRows is the size of BenchmarkHashLookup's index.
const hashRows = 1 << 16

// lookupIndex returns a hashRows-row index sized like the workloads size
// theirs (one bucket per key), and its worker.
func lookupIndex() (*index.Hash, rt.Proc) {
	run, tab := benchTable(hashRows)
	idx := index.New(run, tab, hashRows)
	for s := 0; s < hashRows; s++ {
		idx.LoadInsert(benchKey(s), s)
	}
	return idx, run.Proc(0)
}

// insertIndex returns an empty index over n slots, one bucket per slot, and
// its worker.
func insertIndex(n int) (*index.Hash, rt.Proc) {
	run, tab := benchTable(n)
	return index.New(run, tab, n), run.Proc(0)
}

// BenchmarkHashLookup probes a lookupIndex, hits only.
func BenchmarkHashLookup(b *testing.B) {
	idx, p := lookupIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, _ := idx.Lookup(p, benchKey(i&(hashRows-1)))
		benchSink += slot
	}
}

// BenchmarkHashInsert publishes b.N fresh slots into an insertIndex: the
// runtime insert path of TPC-C's ORDERS, ORDER_LINE and HISTORY appends,
// chains of three and more included.
func BenchmarkHashInsert(b *testing.B) {
	idx, p := insertIndex(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Insert(p, benchKey(i), i)
	}
}

// TestHashAllocFree: a hash probe and a hash insert allocate nothing. Over
// 100 000 of each, B/op reads 0 as -benchmem floors it, and the heap gains
// at most 100 objects: what the Go runtime and the test framework allocate
// now and then (up to 5 objects and 5 KiB seen), where one allocation per
// operation would be 100 000.
func TestHashAllocFree(t *testing.T) {
	const ops, strayObjects, strayBytes = 100_000, 100, 100_000 - 1
	look, lp := lookupIndex()
	ins, ip := insertIndex(ops)
	for name, op := range map[string]func(){
		"Lookup": func() {
			for i := 0; i < ops; i++ {
				slot, _ := look.Lookup(lp, benchKey(i&(hashRows-1)))
				benchSink += slot
			}
		},
		"Insert": func() {
			for i := 0; i < ops; i++ {
				ins.Insert(ip, benchKey(i), i)
			}
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		if b, n := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs; b > strayBytes || n > strayObjects {
			t.Errorf("%d hash %ss allocated %d B in %d objects, want none", ops, name, b, n)
		}
	}
}

// BenchmarkLoadAll maps every slot of a fresh 250 000-slot index, one bucket
// per key as the workloads size theirs (2 MiB of heads), by the LoadInsert
// loop and by LoadAll. ns/key is per mapping. Making the index and
// collecting the last one are outside the timer, so B/op and allocs/op are
// LoadAll's scratch and partition counts alone.
func BenchmarkLoadAll(b *testing.B) {
	const rows = 250_000
	for _, way := range []string{"LoadInsert", "LoadAll"} {
		b.Run(way, func(b *testing.B) {
			run, tab := benchTable(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				idx := index.New(run, tab, rows)
				runtime.GC()
				b.StartTimer()
				if way == "LoadAll" {
					idx.LoadAll(rows, benchKey)
				} else {
					for s := 0; s < rows; s++ {
						idx.LoadInsert(benchKey(s), s)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/key")
		})
	}
}

// BenchmarkOrderedInsert grows a B+tree from empty by b.N inserts, in key
// order (every split is of the rightmost leaf — TPC-C's order ids) and in
// random order.
func BenchmarkOrderedInsert(b *testing.B) {
	for _, order := range []string{"ascending", "random"} {
		b.Run(order, func(b *testing.B) {
			run, tab := benchTable(1)
			idx := index.NewOrdered(run, tab)
			keys := make([]uint64, b.N)
			for i := range keys {
				keys[i] = uint64(i)
			}
			if order == "random" {
				rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			p := run.Proc(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := range keys {
				idx.Insert(p, k, i)
			}
		})
	}
}

// BenchmarkOrderedRangeScan scans 100 consecutive entries of a 64 Ki-entry
// tree into a reused buffer (a StockLevel- or Delivery-sized scan).
func BenchmarkOrderedRangeScan(b *testing.B) {
	const rows, span = 1 << 16, 100
	run, tab := benchTable(1)
	idx := index.NewOrdered(run, tab)
	for _, k := range rand.New(rand.NewSource(1)).Perm(rows) {
		idx.LoadInsert(uint64(k), k)
	}
	p := run.Proc(0)
	out := make([]index.Entry, 0, span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*7919) & (rows - 1)
		out = idx.RangeScan(p, lo, lo+span-1, out[:0])
		benchSink += len(out)
	}
}

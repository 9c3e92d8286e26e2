package abyss1000_test

import (
	"runtime"
	"testing"

	"abyss1000/bench"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// allocated runs f and returns the heap bytes and heap objects it allocated
// (cumulative counters, so a collection in between changes nothing).
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestResidentFootprint gates what a table costs before any transaction has
// touched it: the bytes index.New allocates per hash bucket and the bytes
// Scheme.Setup allocates per tuple slot, latch and counter words included,
// and the number of heap objects either creates — which must not depend on
// the table's size. The paper's §4.1 asks that per-tuple lock state cost
// "several bytes"; these budgets are that remark made executable. The native
// ones are the interesting ones (a latch is 8 bytes there); a simulated latch
// carries its cache line's model and its FIFO (48 bytes), so the simulator's
// budgets are the native entry plus that.
//
// The log lines are the source of the "resident bytes per tuple" tables in
// README.md and EXPERIMENTS.md.
func TestResidentFootprint(t *testing.T) {
	const (
		rows       = 16384
		maxObjects = 64   // per index.New, per Setup: O(tables + workers), never O(rows)
		fixedBytes = 4096 // likewise: allocator, waits-for graph, per-worker words
	)
	runtimes := []struct {
		name string
		mk   func() rt.Runtime
	}{
		{"native", func() rt.Runtime { return native.New(2, 1) }},
		{"sim", func() rt.Runtime { return sim.New(2, 1) }},
	}
	// Bytes per slot, [native, sim]. The index is sized one bucket per row,
	// so its budget is a bucket (an 8-byte head plus its latch, 8 bytes
	// native and 48 simulated) and a table slot's share of the chain arrays
	// (an 8-byte key and a 4-byte link).
	bucketBudget := [2]float64{16 + 12, 56 + 12}
	schemes := []struct {
		name   string
		budget [2]float64
	}{
		{"DL_DETECT", [2]float64{40, 80}},
		{"NO_WAIT", [2]float64{40, 80}},
		{"WAIT_DIE", [2]float64{40, 80}},
		{"TIMESTAMP", [2]float64{80, 96}},
		{"MVCC", [2]float64{56, 96}}, // the floor version (48) and its latch: TIMESTAMP's entry plus a pointer
		{"OCC", [2]float64{16, 80}},
		{"HSTORE", [2]float64{1, 1}}, // partition locks only: nothing per tuple
	}
	for ri, r := range runtimes {
		for _, s := range schemes {
			t.Run(s.name+"/"+r.name, func(t *testing.T) {
				run := r.mk()
				db := core.NewDB(run)
				schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8}, storage.Col{Name: "V", Width: 8})
				tab := db.Catalog.Add(schema, rows, rows, run.NumProcs())

				var idx *index.Hash
				bytes, idxObjects := allocated(func() { idx = index.New(run, tab, rows) })
				perBucket := float64(bytes) / rows
				if float64(bytes) > bucketBudget[ri]*rows+fixedBytes || idxObjects > maxObjects {
					t.Errorf("index.New: %.1f B/bucket in %d objects, budget %.0f B in at most %d",
						perBucket, idxObjects, bucketBudget[ri], maxObjects)
				}
				runtime.KeepAlive(idx)

				scheme := bench.MakeScheme(s.name, tsalloc.Atomic)
				bytes, objects := allocated(func() { scheme.Setup(db) })
				perSlot := float64(bytes) / rows
				if float64(bytes) > s.budget[ri]*rows+fixedBytes || objects > maxObjects {
					t.Errorf("%s.Setup: %.1f B/tuple in %d objects, budget %.0f B in at most %d",
						s.name, perSlot, objects, s.budget[ri], maxObjects)
				}
				runtime.KeepAlive(scheme)
				t.Logf("footprint %-9s %-6s  %6.1f B/tuple in %d objects  %5.1f B/bucket in %d objects",
					s.name, r.name, perSlot, objects, perBucket, idxObjects)
			})
		}
	}
}

package abyss1000_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"abyss1000/abyss"
	"abyss1000/bench"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/slot"
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

// leastAllocated is allocated's least bytes and least objects over three
// readings, each of the call that a fresh prepare returns. The counters
// are process-wide, so another goroutine's allocation can only add to a
// reading: the least is never looser than one reading.
func leastAllocated(prepare func() func()) (bytes, objects uint64) {
	bytes, objects = math.MaxUint64, math.MaxUint64
	for range 3 {
		b, o := allocated(prepare())
		bytes, objects = min(bytes, b), min(objects, o)
	}
	return bytes, objects
}

const (
	footprintRows = 16384
	maxObjects    = 64   // per index.New, per Setup: O(tables + workers), never O(rows)
	fixedBytes    = 4096 // likewise: allocator, waits-for graph, per-worker words

	// splitRows is a table whose 16-byte rows, and every per-slot array of
	// 16 bytes a slot or more, reach internal/slot's 16 MiB split size, so
	// each is allocated in one extent per GOMAXPROCS. An array then costs at
	// most 3 × GOMAXPROCS + 2 objects where it cost one (extents, their
	// directory, the transient closures of the goroutines that zero them,
	// and what the runtime allocates for those goroutines), whatever its
	// size. The runtime's part is why splitFixedBytes replaces fixedBytes
	// there: a goroutine that finds no dead g to reuse allocates one and
	// grows the runtime's list of every g (8 bytes a g, doubling).
	splitRows       = 1 << 20
	splitFixedBytes = 64 << 10
)

// splitObjects is the object budget of a call that made small objects at
// footprintRows, when made at splitRows.
func splitObjects(small uint64) uint64 { return small * uint64(3*runtime.GOMAXPROCS(0)+2) }

// fixedFor is the allowance in bytes, beside the per-slot budgets, of a
// call over a table of rows loaded rows.
func fixedFor(rows int) float64 {
	if rows == splitRows {
		return splitFixedBytes
	}
	return fixedBytes
}

// The runtimes and the budgets in bytes per slot, [native, sim], of the two
// footprint tests. The native budgets are the interesting ones (a latch and
// a counter are 8 bytes each there); a simulated latch is its cache line's
// model, whose spare word holds the latch's holder and FIFO tail (16
// bytes), and a simulated counter 24, so the simulator's budgets cover the
// native entry plus 8 bytes per latch and 16 per counter. The index is
// sized one bucket per row, so its budget is a bucket (an 8-byte head plus
// its latch, 8 bytes native and 16 simulated) and a table slot's share of
// the chain arrays (an 8-byte key and a 4-byte link).
var (
	footprintRuntimes = []struct {
		name string
		mk   func() rt.Runtime
	}{
		{"native", func() rt.Runtime { return native.New(2, 1) }},
		{"sim", func() rt.Runtime { return sim.New(2, 1) }},
	}
	bucketBudget     = [2]float64{16 + 12, 24 + 12}
	footprintSchemes = []struct {
		name   string
		budget [2]float64
	}{
		{"DL_DETECT", [2]float64{40, 48}},
		{"NO_WAIT", [2]float64{40, 48}},
		{"WAIT_DIE", [2]float64{40, 48}},
		{"TIMESTAMP", [2]float64{80, 64}},
		{"MVCC", [2]float64{56, 64}}, // the floor version (48) and its latch: TIMESTAMP's entry plus a pointer
		{"OCC", [2]float64{16, 48}},
		{"HSTORE", [2]float64{1, 1}}, // partition locks only: nothing per tuple
	}
)

// checkFootprintMatrix fails t unless both footprint tests cover seven
// schemes on two runtimes: fourteen cases, each at both table sizes, and
// the insert-only index on both runtimes.
func checkFootprintMatrix(t *testing.T) {
	if len(footprintSchemes) != 7 || len(footprintRuntimes) != 2 {
		t.Fatalf("footprint matrix: %d schemes on %d runtimes, want 7 on 2", len(footprintSchemes), len(footprintRuntimes))
	}
}

// pinMVCC fails t unless MVCC's bytes per tuple, rounded by round, are its
// budget exactly: at rest a tuple is its floor version and a latch,
// whatever was written to it.
func pinMVCC(t *testing.T, scheme, what string, perTuple, budget float64, round func(float64) float64) {
	if scheme == "MVCC" && round(perTuple) != budget {
		t.Errorf("MVCC %s: %.1f B/tuple, want %.0f B exactly: the floor version and its latch", what, perTuple, budget)
	}
}

func footprintSchema() *storage.Schema {
	return storage.NewSchema("T", storage.Col{Name: "K", Width: 8}, storage.Col{Name: "V", Width: 8})
}

// TestResidentFootprint gates what a table costs before any transaction has
// touched it: the bytes index.New allocates per hash bucket and the bytes
// Scheme.Setup allocates per tuple slot, latch and counter words included,
// and the number of heap objects either creates — which must not depend on
// the table's size. The paper's §4.1 asks that per-tuple lock state cost
// "several bytes"; these budgets are that remark made executable.
//
// The log lines are the source of the "resident bytes per tuple" tables in
// README.md and EXPERIMENTS.md.
func TestResidentFootprint(t *testing.T) {
	checkFootprintMatrix(t)
	for ri, r := range footprintRuntimes {
		for _, s := range footprintSchemes {
			t.Run(s.name+"/"+r.name, func(t *testing.T) {
				var idxSmall, setupSmall uint64
				for _, rows := range []int{footprintRows, splitRows} {
					idxBudget, setupBudget := uint64(maxObjects), uint64(maxObjects)
					if rows == splitRows {
						idxBudget, setupBudget = splitObjects(idxSmall), splitObjects(setupSmall)
						runtime.GC() // the footprintRows build's garbage
					}
					fresh := func() (rt.Runtime, *core.DB, *storage.Table) {
						run := r.mk()
						db := core.NewDB(run)
						return run, db, db.Catalog.Add(footprintSchema(), rows, rows, run.NumProcs())
					}
					bytes, idxObjects := leastAllocated(func() func() {
						run, _, tab := fresh()
						return func() { runtime.KeepAlive(index.New(run, tab, rows)) }
					})
					perBucket := float64(bytes) / float64(rows)
					if perBucket > bucketBudget[ri]+fixedFor(rows)/float64(rows) || idxObjects > idxBudget {
						t.Errorf("index.New over %d rows: %.1f B/bucket in %d objects, budget %.0f B in at most %d",
							rows, perBucket, idxObjects, bucketBudget[ri], idxBudget)
					}
					bytes, objects := leastAllocated(func() func() {
						_, db, _ := fresh()
						scheme := bench.MakeScheme(s.name, tsalloc.Atomic)
						return func() { scheme.Setup(db) }
					})
					perSlot := float64(bytes) / float64(rows)
					if perSlot > s.budget[ri]+fixedFor(rows)/float64(rows) || objects > setupBudget {
						t.Errorf("%s.Setup over %d rows: %.1f B/tuple in %d objects, budget %.0f B in at most %d",
							s.name, rows, perSlot, objects, s.budget[ri], setupBudget)
					}
					pinMVCC(t, s.name, "Setup", perSlot, s.budget[ri], func(x float64) float64 { return math.Round(x*10) / 10 })
					if rows == footprintRows {
						idxSmall, setupSmall = idxObjects, objects
						t.Logf("footprint %-9s %-6s  %6.1f B/tuple in %d objects  %5.1f B/bucket in %d objects",
							s.name, r.name, perSlot, objects, perBucket, idxObjects)
					} else {
						t.Logf("split     %-9s %-6s  %6.1f B/tuple in %d objects  %5.1f B/bucket in %d objects over %d rows",
							s.name, r.name, perSlot, objects, perBucket, idxObjects, rows)
					}
				}
			})
		}
	}
}

// insertTxn inserts key and, from the second key on, reads back the row its
// predecessor inserted, so every per-slot structure of a fresh slot — row,
// chain links, and the scheme's entry and latch — is reached by the time
// the next transaction commits.
type insertTxn struct {
	tab   *storage.Table
	idx   *index.Hash
	first uint64
	key   uint64
}

var (
	errLostInsert = errors.New("footprint: an inserted row is missing or wrong")
	partitionZero = []int{0}
)

func (x *insertTxn) Partitions() []int { return partitionZero }

func (x *insertTxn) Run(tx *core.TxnCtx) error {
	if x.key > x.first {
		s, ok := tx.Lookup(x.idx, x.key-1)
		if !ok {
			return errLostInsert
		}
		row, err := tx.Read(x.tab, s)
		if err != nil {
			return err
		}
		if x.tab.Schema.GetU64(row, 1) != x.key-1 {
			return errLostInsert
		}
	}
	row := tx.InsertRow(x.idx, x.key)
	x.tab.Schema.PutU64(row, 0, x.key)
	x.tab.Schema.PutU64(row, 1, x.key)
	return nil
}

// TestReservedCapacityIsFree: capacity a table reserves for inserts costs
// nothing until rows land in it. A table of 1<<20 slots with 16 384 loaded
// rows costs its rows, its index and each scheme's Setup exactly
// TestResidentFootprint's per-row budgets for the loaded rows, plus a page
// directory (8 bytes per 4 096-slot page) per slot-indexed array. And
// inserting grows the heap by at most the per-slot budgets — row, chain
// links, CC entry and latch — times the inserted rows rounded up to whole
// pages: 10 000 committed inserts, each read back by the next transaction,
// page in at most three pages of every array and allocate nothing else. A
// table of splitRows loaded rows and as many reserved holds the same
// budgets, its loaded rows split into extents. A hash index over a table
// with no loaded rows pages its buckets in too (see the last subtests).
func TestReservedCapacityIsFree(t *testing.T) {
	const warm, inserts = 100, 10_000
	schema := footprintSchema()
	rowBytes := float64(schema.RowSize())
	pages := float64((inserts + slot.PageSlots - 1) / slot.PageSlots * slot.PageSlots)
	checkFootprintMatrix(t)
	for ri, r := range footprintRuntimes {
		for _, s := range footprintSchemes {
			t.Run(s.name+"/"+r.name, func(t *testing.T) {
				small := map[string]uint64{} // objects per call at footprintRows
				for _, l := range []slot.Layout{{Dense: footprintRows, Cap: 1 << 20}, {Dense: splitRows, Cap: 2 * splitRows}} {
					if l.Dense == splitRows {
						runtime.GC() // the footprintRows table's garbage
					}
					rows, dir := l.Dense, float64(8*l.Pages()) // one page directory
					run := r.mk()
					db := core.NewDB(run)
					var tab *storage.Table
					check := func(what string, bytes, objects uint64, perRow, dirs float64) {
						t.Helper()
						most := uint64(maxObjects)
						if rows == splitRows {
							most = splitObjects(small[what])
						} else {
							small[what] = objects
						}
						if budget := perRow*float64(rows) + dirs*dir + fixedFor(rows); float64(bytes) > budget || objects > most {
							t.Errorf("%s over %d loaded and %d reserved slots: %d B in %d objects, budget %.0f B in at most %d",
								what, rows, l.Cap-rows, bytes, objects, budget, most)
						}
					}
					bytes, objects := allocated(func() { tab = db.Catalog.Add(schema, l.Cap, rows, run.NumProcs()) })
					check("table", bytes, objects, rowBytes, 1)
					var idx *index.Hash
					bytes, objects = allocated(func() { idx = db.AddIndex("T_PK", tab, rows) })
					check("index.New", bytes, objects, bucketBudget[ri], 2)
					for k := 0; k < rows; k++ {
						schema.PutU64(tab.LoadRow(k), 1, uint64(k))
						idx.LoadInsert(uint64(k), k)
					}
					scheme := bench.MakeScheme(s.name, tsalloc.Atomic)
					bytes, objects = allocated(func() { scheme.Setup(db) })
					check("Setup", bytes, objects, s.budget[ri], 2)
					perTuple := float64(bytes) / float64(rows)

					// Worker 0's insert segment starts on a page boundary: the
					// warm-up pages in the first page, the measured inserts the
					// next two.
					var grown uint64
					run.Run(func(p rt.Proc) {
						if p.ID() != 0 {
							return
						}
						w := core.NewWorker(p, db, scheme)
						x := &insertTxn{tab: tab, idx: idx, first: uint64(rows), key: uint64(rows)}
						exec := func(n int) {
							for i := 0; i < n; i, x.key = i+1, x.key+1 {
								if err := w.ExecOnce(x); err != nil {
									t.Errorf("insert of key %d: %v", x.key, err)
									return
								}
							}
						}
						exec(warm)
						grown, _ = allocated(func() { exec(inserts) })
					})
					budget := (s.budget[ri] + 12 + rowBytes) * pages
					if float64(grown) > budget {
						t.Errorf("%d inserts past %d loaded rows grew the heap by %d B, budget %.0f B (%.0f B per slot of %.0f)",
							inserts, rows, grown, budget, budget/pages, pages)
					}
					runtime.KeepAlive(scheme)
					pinMVCC(t, s.name, "Setup with reserved slots", perTuple, s.budget[ri], math.Floor)
					t.Logf("reserved %-9s %-6s  %6.1f B/tuple with %d slots reserved  %5.1f B/slot over %d inserts",
						s.name, r.name, perTuple, l.Cap-rows, float64(grown)/inserts, inserts)
				}
			})
		}
	}

	// A hash index over a table with no loaded rows, with one bucket per
	// reserved slot (as TPC-C sizes ORDER_LINE_PK): index.New costs its four
	// page directories (heads, latches, keys, next) and nothing per bucket,
	// and inserts page in only the buckets they reach. The keys are aimed at
	// the first three pages of buckets and land in slots [0, inserts), so
	// they may grow the heap by three pages of buckets and three of chain
	// links, bucketBudget per slot of each, beside fixedBytes.
	for ri, r := range footprintRuntimes {
		t.Run("insert-only-index/"+r.name, func(t *testing.T) {
			const slots, aimed = 1 << 20, 3 * slot.PageSlots
			l := slot.Layout{Dense: 0, Cap: slots}
			run := r.mk()
			db := core.NewDB(run)
			tab := db.Catalog.Add(schema, l.Cap, 0, run.NumProcs())
			var idx *index.Hash
			bytes, objects := allocated(func() { idx = db.AddIndex("T_PK", tab, slots) })
			if budget := 4*8*float64(l.Pages()) + fixedBytes; float64(bytes) > budget || objects > maxObjects {
				t.Errorf("index.New over %d buckets and no loaded rows: %d B in %d objects, budget %.0f B in at most %d",
					slots, bytes, objects, budget, maxObjects)
			}
			keys := make([]uint64, 0, inserts)
			for k := uint64(0); len(keys) < inserts; k++ {
				if index.Bucket(k, slots) < aimed {
					keys = append(keys, k)
				}
			}
			var grown uint64
			run.Run(func(p rt.Proc) {
				if p.ID() == 0 {
					grown, _ = allocated(func() {
						for s, k := range keys {
							idx.Insert(p, k, s)
						}
					})
				}
			})
			for s, k := range keys {
				if got, ok := idx.LoadLookup(k); !ok || got != s {
					t.Fatalf("key %d: found slot %d (%v), want %d", k, got, ok, s)
				}
			}
			if budget := bucketBudget[ri]*aimed + fixedBytes; float64(grown) > budget {
				t.Errorf("%d inserts into the first %d buckets grew the heap by %d B, budget %.0f B", inserts, aimed, grown, budget)
			}
			t.Logf("insert-only %-6s  index.New %d B over %d buckets  %5.1f B/slot over %d inserts",
				r.name, bytes, slots, float64(grown)/inserts, inserts)
		})
	}
}

// discardSink is a log sink that keeps nothing, so a checkpoint's records
// are not live heap.
type discardSink struct{}

func (discardSink) Write(p []byte) (int, error) { return len(p), nil }
func (discardSink) Sync() error                 { return nil }
func (discardSink) Close() error                { return nil }

// liveHeap returns the live heap after two full collections (the second
// frees what sync.Pools dropped in the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIdleWalksPageNothingIn: a checkpoint and a state dump of a freshly
// built TPC-C database walk every index — the hash indexes over tables with
// no loaded rows included — and page in none of the buckets no insert has
// reached: both together grow the live heap by less than one page of bucket
// heads. Under the paper mix those are HISTORY_PK, ORDERS_PK, NEW_ORDER_PK
// and ORDER_LINE_PK, and paging in ORDER_LINE_PK's heads alone would take 32
// pages here; under the full mix, where NEW_ORDER and ORDER_LINE are indexed
// by their B+trees alone, they are HISTORY_PK and ORDERS_PK.
func TestIdleWalksPageNothingIn(t *testing.T) {
	const page = slot.PageSlots * 8 // one page of 8-byte heads
	for _, mix := range []string{"paper", "full"} {
		for _, rtName := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
			t.Run(mix+"/"+rtName, func(t *testing.T) {
				db, err := abyss.Open(abyss.Options{Runtime: rtName, Cores: 2, Seed: 42,
					Durability: &abyss.Durability{Sink: discardSink{}}})
				if err != nil {
					t.Fatal(err)
				}
				p, err := abyss.DefaultWorkloadParams("tpcc")
				if err != nil {
					t.Fatal(err)
				}
				p.Mix = mix
				if _, err := db.BuildWorkload("tpcc", p); err != nil {
					t.Fatal(err)
				}
				before := liveHeap()
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if db.StateDump() == "" {
					t.Fatal("empty state dump")
				}
				grown := int64(liveHeap()) - int64(before)
				runtime.KeepAlive(db)
				if grown >= page {
					t.Errorf("Checkpoint and StateDump of an idle %s-mix TPC-C database grew the live heap by %d B, want < %d B (one bucket page)", mix, grown, page)
				}
				t.Logf("idle walks %-5s %-6s  live heap %+d B", mix, rtName, grown)
			})
		}
	}
}

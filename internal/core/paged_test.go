package core_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cc/occ"
	"abyss1000/internal/cc/to"
	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
)

// pagedSchemes are one scheme per family that keeps state per slot.
func pagedSchemes() []core.Scheme {
	return []core.Scheme{
		twopl.New(twopl.NoWait, twopl.Options{}),
		to.New(tsalloc.Atomic),
		mvcc.New(tsalloc.Atomic),
		occ.New(tsalloc.Atomic),
	}
}

// pagedDB is a table of loaded accounts (key i, balance in column 1) with
// an insert region of spare slots, and its hash index.
func pagedDB(r rt.Runtime, loaded, spare int, balance uint64) (*core.DB, *storage.Table, *index.Hash) {
	db := core.NewDB(r)
	schema := storage.NewSchema("P", storage.Col{Name: "KEY", Width: 8}, storage.Col{Name: "VAL", Width: 8})
	tab := db.Catalog.Add(schema, loaded+spare, loaded, r.NumProcs())
	idx := db.AddIndex("P_PK", tab, 1024)
	for i := 0; i < loaded; i++ {
		schema.PutU64(tab.LoadRow(i), 0, uint64(i))
		schema.PutU64(tab.LoadRow(i), 1, balance)
		idx.LoadInsert(uint64(i), i)
	}
	return db, tab, idx
}

// committedRow is DumpState's view of one row on a quiescent database.
func committedRow(scheme core.Scheme, t *storage.Table, s int) []byte {
	if cr, ok := scheme.(core.CommittedRower); ok {
		if img := cr.LatestCommitted(t, s); img != nil {
			return img
		}
	}
	return t.Row(s)
}

// execRetry runs body on w until it commits.
func execRetry(t *testing.T, w *core.Worker, body func(tx *core.TxnCtx) error) {
	t.Helper()
	txn := &cctest.Txn{Body: body}
	for {
		err := w.ExecOnce(txn)
		if err == nil {
			return
		}
		if err != core.ErrAbort {
			t.Errorf("transaction failed: %v", err)
			return
		}
	}
}

// TestPagedInsertsNative: four native workers insert into one table whose
// insert region is not a whole number of pages, so two workers' segments
// straddle a page boundary and pages are first touched — by an insert, or
// by another worker's lookup and read of a row just published into them —
// while other workers run. Every transaction moves an amount from a loaded
// account into the row it inserts and reads back a row another worker
// published, so money is conserved exactly when no insert is lost, torn or
// doubled. Run under -race, this is the CAS page-in's data-race check.
func TestPagedInsertsNative(t *testing.T) {
	const (
		workers, loaded, perWorker = 4, 64, 3000
		balance                    = 1 << 32
	)
	spare := workers*(perWorker+1) + 3 // segments of 3001, the last 3004
	if spare%slot.PageSlots == 0 {
		t.Fatal("the insert region must not be a whole number of pages")
	}
	key := func(w, i int) uint64 { return uint64(w+1)<<32 | uint64(i) }
	amount := func(k uint64) uint64 { return 1 + k%7 }
	for _, scheme := range pagedSchemes() {
		t.Run(scheme.Name(), func(t *testing.T) {
			run := native.New(workers, 1)
			db, tab, idx := pagedDB(run, loaded, spare, balance)
			sc := tab.Schema
			scheme.Setup(db)
			straddle := 0
			for w := 0; w < workers; w++ {
				start, _ := tab.SegRange(w)
				if (start-loaded)/slot.PageSlots != (start+perWorker-1-loaded)/slot.PageSlots {
					straddle++
				}
			}
			if straddle < 2 {
				t.Fatalf("only %d worker segments cross a page boundary", straddle)
			}
			var published [workers]atomic.Int64
			run.Run(func(p rt.Proc) {
				me := p.ID()
				w := core.NewWorker(p, db, scheme)
				rng := rand.New(rand.NewSource(int64(me)))
				for i := 0; i < perWorker; i++ {
					k := key(me, i)
					other := (me + 1 + rng.Intn(workers-1)) % workers
					n := published[other].Load()
					execRetry(t, w, func(tx *core.TxnCtx) error {
						if n > 0 {
							ok := key(other, rng.Intn(int(n)))
							s, found := tx.Lookup(idx, ok)
							if !found {
								t.Errorf("worker %d: key %#x published by worker %d not found", me, ok, other)
								return nil
							}
							row, err := tx.Read(tab, s)
							if err != nil {
								return err
							}
							if sc.GetU64(row, 0) != ok || sc.GetU64(row, 1) != amount(ok) {
								t.Errorf("worker %d: slot %d holds key %#x value %d, want %#x value %d",
									me, s, sc.GetU64(row, 0), sc.GetU64(row, 1), ok, amount(ok))
							}
						}
						acct, err := tx.UpdateRow(tab, rng.Intn(loaded))
						if err != nil {
							return err
						}
						sc.PutU64(acct, 1, sc.GetU64(acct, 1)-amount(k))
						row := tx.InsertRow(idx, k)
						sc.PutU64(row, 0, k)
						sc.PutU64(row, 1, amount(k))
						return nil
					})
					published[me].Store(int64(i + 1))
				}
			})

			var total uint64
			for s := 0; s < loaded; s++ {
				total += sc.GetU64(committedRow(scheme, tab, s), 1)
			}
			for w := 0; w < workers; w++ {
				start, next := tab.SegRange(w)
				if next-start != perWorker {
					t.Fatalf("worker %d inserted %d rows, want %d", w, next-start, perWorker)
				}
				for i := 0; i < perWorker; i++ {
					s, ok := idx.LoadLookup(key(w, i))
					if !ok || s < start || s >= next {
						t.Fatalf("key %#x at slot %d (found %v), outside worker %d's segment [%d, %d)", key(w, i), s, ok, w, start, next)
					}
					total += sc.GetU64(committedRow(scheme, tab, s), 1)
				}
			}
			if total != loaded*balance {
				t.Fatalf("total %d after the run, want %d", total, uint64(loaded*balance))
			}
		})
	}
}

// TestCheckpointRecoverAcrossPages: a checkpoint of a table whose inserted
// rows fill more than three pages restores, on a fresh database, exactly
// the live state — rows cut at page boundaries by the slab path (2PL) and
// carried across them by the committed-image path (MVCC) alike.
func TestCheckpointRecoverAcrossPages(t *testing.T) {
	const (
		loaded  = 64
		inserts = 3*slot.PageSlots + 200
		spare   = inserts + 500
	)
	for _, scheme := range []core.Scheme{twopl.New(twopl.NoWait, twopl.Options{}), mvcc.New(tsalloc.Atomic)} {
		t.Run(scheme.Name(), func(t *testing.T) {
			run := native.New(1, 1)
			db, tab, idx := pagedDB(run, loaded, spare, 1000)
			sc := tab.Schema
			sink := wal.NewMemSink()
			db.Wal = wal.NewWriter(sink, wal.Config{})
			scheme.Setup(db)
			run.Run(func(p rt.Proc) {
				w := core.NewWorker(p, db, scheme)
				for i := 0; i < inserts; i++ {
					execRetry(t, w, func(tx *core.TxnCtx) error {
						acct, err := tx.UpdateRow(tab, i%loaded)
						if err != nil {
							return err
						}
						sc.PutU64(acct, 1, sc.GetU64(acct, 1)+1)
						row := tx.InsertRow(idx, uint64(1_000_000+i))
						sc.PutU64(row, 0, uint64(1_000_000+i))
						sc.PutU64(row, 1, uint64(i))
						return nil
					})
				}
			})
			if _, next := tab.SegRange(0); (next-loaded+slot.PageSlots-1)/slot.PageSlots < 4 {
				t.Fatalf("inserted rows end at slot %d: fewer than four pages", next)
			}
			live := core.DumpState(db, scheme)
			if err := core.Checkpoint(db, scheme); err != nil {
				t.Fatal(err)
			}
			db2, _, _ := pagedDB(native.New(1, 1), loaded, spare, 1000)
			info, err := core.Recover(db2, sink.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if info.Checkpoint == 0 || info.Commits != 0 {
				t.Fatalf("recovery did not start from the checkpoint: %+v", info)
			}
			if got := core.DumpState(db2, nil); got != live {
				t.Fatal("state recovered from the checkpoint differs from the live state")
			}
		})
	}
}

// TestCheckpointRecoverAcrossExtents: a table whose loaded rows are large
// enough to be allocated in one extent per GOMAXPROCS checkpoints in row
// records cut at each extent's end, and recovers, into a table split at
// other edges, exactly the live rows — among them rows written on both sides
// of every edge.
func TestCheckpointRecoverAcrossExtents(t *testing.T) {
	const loaded = 16_500 // of 1 KiB: 16.9 MB, past slot's 16 MiB split size
	schema := storage.NewSchema("X", storage.Col{Name: "KEY", Width: 8}, storage.Col{Name: "VAL", Width: 8},
		storage.Col{Name: "PAD", Width: 1008})
	open := func(procs int) (*core.DB, *storage.Table) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		db := core.NewDB(native.New(1, 1))
		tab := db.Catalog.Add(schema, loaded, loaded, 1)
		for i := 0; i < loaded; i++ {
			schema.PutU64(tab.LoadRow(i), 0, uint64(i))
		}
		return db, tab
	}
	for _, scheme := range []core.Scheme{twopl.New(twopl.NoWait, twopl.Options{}), mvcc.New(tsalloc.Atomic)} {
		t.Run(scheme.Name(), func(t *testing.T) {
			db, tab := open(2)
			if n := len(tab.Rows(0, loaded)) / schema.RowSize(); n == loaded {
				t.Fatal("the loaded rows are one allocation: nothing to cut a checkpoint at")
			}
			sink := wal.NewMemSink()
			db.Wal = wal.NewWriter(sink, wal.Config{})
			scheme.Setup(db)
			var written []int
			for _, edge := range []int{0, loaded / 3, loaded / 2, 2 * loaded / 3, loaded} {
				for s := max(edge-2, 0); s < min(edge+2, loaded); s++ {
					written = append(written, s)
				}
			}
			db.RT.Run(func(p rt.Proc) {
				w := core.NewWorker(p, db, scheme)
				for _, s := range written {
					execRetry(t, w, func(tx *core.TxnCtx) error {
						row, err := tx.UpdateRow(tab, s)
						if err != nil {
							return err
						}
						schema.PutU64(row, 1, uint64(s)*7+1)
						row[len(row)-1] = byte(s)
						return nil
					})
				}
			})
			if err := core.Checkpoint(db, scheme); err != nil {
				t.Fatal(err)
			}
			db2, tab2 := open(3)
			info, err := core.Recover(db2, sink.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if info.Checkpoint == 0 || info.Commits != 0 {
				t.Fatalf("recovery did not start from the checkpoint: %+v", info)
			}
			for s := 0; s < loaded; s++ {
				if got, want := tab2.Row(s), committedRow(scheme, tab, s); !bytes.Equal(got, want) {
					t.Fatalf("slot %d recovered as %x…, live %x…", s, got[:24], want[:24])
				}
			}
			for _, s := range written {
				if schema.GetU64(tab2.Row(s), 1) != uint64(s)*7+1 {
					t.Fatalf("slot %d lost its update", s)
				}
			}
		})
	}
}

package core_test

import (
	"bytes"
	"testing"

	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
)

// orderedFixture is the counter fixture plus an empty ordered secondary
// index over the counter table.
func orderedFixture(rows int) (*sim.Engine, *core.DB, *storage.Table, *index.Ordered) {
	eng := sim.New(2, 1)
	db, tab := cctest.NewCounterDB(eng, rows)
	ord := db.AddOrderedIndex("C_ORD", tab)
	return eng, db, tab, ord
}

// TestOrderedInsertDeferredUntilCommit: an InsertRowOrdered entry is
// invisible to scans inside the inserting transaction, published to both
// indexes at commit, dropped on abort.
func TestOrderedInsertDeferredUntilCommit(t *testing.T) {
	eng, db, tab, ord := orderedFixture(64)
	scheme := twopl.New(twopl.NoWait, twopl.Options{})
	scheme.Setup(db)
	idx := db.Index("C_PK").(*index.Hash)
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		w := core.NewWorker(p, db, scheme)
		err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			row := tx.InsertRowOrdered(idx, 1000, ord, 500)
			tab.Schema.PutU64(row, 0, 1000)
			tab.Schema.PutU64(row, 1, 77)
			if got := tx.RangeScan(ord, 0, 1<<62); len(got) != 0 {
				t.Errorf("staged ordered entry visible before commit: %v", got)
			}
			return nil
		}})
		if err != nil {
			t.Fatalf("insert txn: %v", err)
		}
		// A second insert aborts: neither index may retain it.
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			row := tx.InsertRowOrdered(idx, 1001, ord, 501)
			tab.Schema.PutU64(row, 0, 1001)
			return core.ErrUserAbort
		}})
		err = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			got := tx.RangeScan(ord, 0, 1<<62)
			if len(got) != 1 || got[0].Key != 500 {
				t.Errorf("scan after commit = %v, want one entry with key 500", got)
				return nil
			}
			if slot, ok := ord.Lookup(tx.P, 500); !ok || slot != int(got[0].Slot) {
				t.Errorf("ord.Lookup(500) = %d, %v", slot, ok)
			}
			row, err := tx.Read(tab, int(got[0].Slot))
			if err != nil {
				return err
			}
			if tab.Schema.GetU64(row, 1) != 77 {
				t.Error("ordered scan led to wrong row image")
			}
			return nil
		}})
		if err != nil {
			t.Fatalf("scan txn: %v", err)
		}
	})
}

// TestOrderedInsertRecovery round-trips ordered-index inserts through the
// WAL: commit records carry both entries' ordinals and keys, replay rebuilds
// the entries, replaying twice changes nothing, and a checkpoint carries
// the entries forward on its own.
func TestOrderedInsertRecovery(t *testing.T) {
	eng, db, tab, ord := orderedFixture(64)
	sink := wal.NewMemSink()
	db.Wal = wal.NewWriter(sink, wal.Config{})
	scheme := twopl.New(twopl.NoWait, twopl.Options{})
	scheme.Setup(db)
	idx := db.Index("C_PK").(*index.Hash)
	eng.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		w := core.NewWorker(p, db, scheme)
		for i := 0; i < 8; i++ {
			key := uint64(2000 + i)
			okey := uint64(900 - i) // descending: replay must re-sort
			err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				row := tx.InsertRowOrdered(idx, key, ord, okey)
				tab.Schema.PutU64(row, 0, key)
				tab.Schema.PutU64(row, 1, okey)
				return nil
			}})
			if err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	})
	if err := db.Wal.Flush(); err != nil {
		t.Fatal(err)
	}
	live := core.DumpState(db, scheme)

	recover := func(stream []byte) (*core.DB, *index.Ordered, core.RecoverInfo) {
		_, db2, _, ord2 := orderedFixture(64)
		info, err := core.Recover(db2, stream)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		return db2, ord2, info
	}

	db2, ord2, info := recover(sink.Bytes())
	if info.Inserts != 8 {
		t.Fatalf("replayed %d inserts, want 8", info.Inserts)
	}
	if ord2.Len() != 8 {
		t.Fatalf("recovered ordered index has %d entries, want 8", ord2.Len())
	}
	if got := core.DumpState(db2, nil); got != live {
		t.Fatalf("recovered state diverges from live state:\nlive:\n%s\nrecovered:\n%s", live, got)
	}
	// Idempotence: a second replay over the recovered state is a no-op.
	if _, err := core.Recover(db2, sink.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := core.DumpState(db2, nil); got != live {
		t.Fatal("second replay changed the recovered state")
	}

	// Checkpoint the live DB: recovery now starts from the snapshot, whose
	// ordered-index records alone must rebuild the entries.
	if err := core.Checkpoint(db, scheme); err != nil {
		t.Fatal(err)
	}
	db3, ord3, info := recover(sink.Bytes())
	if info.Checkpoint == 0 {
		t.Fatalf("recovery ignored the checkpoint: %+v", info)
	}
	if info.Commits != 0 {
		t.Fatalf("post-checkpoint replay should be empty, applied %d commits", info.Commits)
	}
	if ord3.Len() != 8 {
		t.Fatalf("checkpoint-only recovery has %d ordered entries, want 8", ord3.Len())
	}
	if got := core.DumpState(db3, nil); got != live {
		t.Fatal("checkpoint-only recovery diverges from live state")
	}
}

// orderedOnlyDB is a table of loaded rows (key i) with an insert region of
// spare slots, indexed by one ordered index and nothing else.
func orderedOnlyDB(r rt.Runtime, loaded, spare int) (*core.DB, *storage.Table, *index.Ordered) {
	db := core.NewDB(r)
	schema := storage.NewSchema("O", storage.Col{Name: "KEY", Width: 8}, storage.Col{Name: "VAL", Width: 8})
	tab := db.Catalog.Add(schema, loaded+spare, loaded, r.NumProcs())
	ord := db.AddOrderedIndex("O_ORD", tab)
	for i := 0; i < loaded; i++ {
		schema.PutU64(tab.LoadRow(i), 0, uint64(i))
		ord.LoadInsert(uint64(i), i)
	}
	return db, tab, ord
}

// TestOrderedOnlyInsertRecovery: rows inserted into a table whose only
// index is ordered, each beside an update of a loaded row, recover to the
// live state from the log alone, from a checkpoint plus the log tail, and
// from either stream replayed twice — the ordered entry alone decides
// where a replayed row lives, and a replay over a state that already holds
// it adds no second entry. Replaying the checkpoint and tail twice also
// pins that the checkpoint's allocation cursors do not rewind over the
// rows the first replay of the tail allocated.
func TestOrderedOnlyInsertRecovery(t *testing.T) {
	const loaded, before, after = 16, 40, 24 // inserts before and after the checkpoint
	runtimes := []struct {
		name string
		mk   func() rt.Runtime
	}{
		{"sim", func() rt.Runtime { return sim.New(1, 1) }},
		{"native", func() rt.Runtime { return native.New(1, 1) }},
	}
	for _, r := range runtimes {
		for _, scheme := range []core.Scheme{twopl.New(twopl.NoWait, twopl.Options{}), mvcc.New(tsalloc.Atomic)} {
			t.Run(r.name+"/"+scheme.Name(), func(t *testing.T) {
				db, tab, ord := orderedOnlyDB(r.mk(), loaded, before+after)
				sc := tab.Schema
				sink := wal.NewMemSink()
				db.Wal = wal.NewWriter(sink, wal.Config{})
				scheme.Setup(db)
				insert := func(w *core.Worker, i int) {
					key := uint64(1_000_000 - i) // descending: replay must re-sort
					execRetry(t, w, func(tx *core.TxnCtx) error {
						row, err := tx.UpdateRow(tab, i%loaded)
						if err != nil {
							return err
						}
						sc.PutU64(row, 1, sc.GetU64(row, 1)+key)
						ins := tx.InsertRow(ord, key)
						sc.PutU64(ins, 0, key)
						sc.PutU64(ins, 1, uint64(i))
						return nil
					})
				}
				var logOnly []byte // the stream up to the checkpoint
				var atCkpt string  // the state it commits to
				db.RT.Run(func(p rt.Proc) {
					w := core.NewWorker(p, db, scheme)
					for i := 0; i < before; i++ {
						insert(w, i)
					}
					// The one worker is between transactions: the database
					// is quiescent.
					if err := db.Wal.Flush(); err != nil {
						t.Error(err)
					}
					logOnly, atCkpt = bytes.Clone(sink.Bytes()), core.DumpState(db, scheme)
					if err := core.Checkpoint(db, scheme); err != nil {
						t.Error(err)
					}
					for i := before; i < before+after; i++ {
						insert(w, i)
					}
				})
				if err := db.Wal.Flush(); err != nil {
					t.Fatal(err)
				}
				live := core.DumpState(db, scheme)
				if ord.Len() != loaded+before+after {
					t.Fatalf("live ordered index has %d entries, want %d", ord.Len(), loaded+before+after)
				}

				recover := func(t *testing.T, stream []byte, times int) (string, core.RecoverInfo) {
					db2, _, _ := orderedOnlyDB(r.mk(), loaded, before+after)
					var info core.RecoverInfo
					for range times {
						var err error
						if info, err = core.Recover(db2, stream); err != nil {
							t.Fatalf("recover: %v", err)
						}
					}
					return core.DumpState(db2, nil), info
				}
				for _, c := range []struct {
					name    string
					stream  []byte
					times   int
					want    string
					ckpt    bool
					inserts int
				}{
					{"log", logOnly, 1, atCkpt, false, before},
					{"log-twice", logOnly, 2, atCkpt, false, before},
					{"checkpoint-and-tail", sink.Bytes(), 1, live, true, after},
					{"checkpoint-and-tail-twice", sink.Bytes(), 2, live, true, after},
				} {
					t.Run(c.name, func(t *testing.T) {
						got, info := recover(t, c.stream, c.times)
						if (info.Checkpoint != 0) != c.ckpt || info.Inserts != c.inserts {
							t.Fatalf("recovery replayed %+v, want %d inserts (from a checkpoint: %v)", info, c.inserts, c.ckpt)
						}
						if got != c.want {
							t.Fatalf("recovered state diverges from the live state:\nlive:\n%s\nrecovered:\n%s", c.want, got)
						}
					})
				}
			})
		}
	}
}

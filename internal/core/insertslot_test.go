package core_test

import (
	"fmt"
	"testing"

	"abyss1000/internal/cc/occ"
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

// slotDB is a table of four loaded rows with a hash index, and an
// insert-only table indexed by a B+tree alone, each with 16 spare slots.
func slotDB(r rt.Runtime) (*core.DB, *storage.Table, *index.Hash, *storage.Table, *index.Ordered) {
	db := core.NewDB(r)
	cols := []storage.Col{{Name: "KEY", Width: 8}, {Name: "VAL", Width: 8}, {Name: "PAD", Width: 24}}
	a := db.Catalog.Add(storage.NewSchema("A", cols...), 4+16, 4, r.NumProcs())
	ax := db.AddIndex("A_PK", a, 32)
	for i := 0; i < 4; i++ {
		a.Schema.PutU64(a.LoadRow(i), 0, uint64(i))
		ax.LoadInsert(uint64(i), i)
	}
	b := db.Catalog.Add(storage.NewSchema("B", cols...), 16, 0, r.NumProcs())
	return db, a, ax, b, db.AddOrderedIndex("B_ORD", b)
}

// TestFailedAttemptReleasesSlots is the slot-release net. An attempt builds
// three rows in place, in two tables, and then fails — by a CC abort (a
// NO_WAIT conflict with another transaction's lock) or by a user abort —
// on both runtimes, with and without a WAL. Afterwards each table's
// allocated range is what it was before the attempt, every slot past it is
// all zero, no index maps the released slots, and the next committed
// insert into each table lands on the first released slot. With a WAL,
// recovering the log reproduces the live state, so the failed attempt left
// nothing in it. The user abort runs under OCC too, whose insert-only
// commits have no read or write set to validate: they must still reach
// the commit point that publishes their rows.
func TestFailedAttemptReleasesSlots(t *testing.T) {
	runtimes := map[string]func() rt.Runtime{
		"sim":    func() rt.Runtime { return sim.New(1, 1) },
		"native": func() rt.Runtime { return native.New(1, 1) },
	}
	for _, rtName := range []string{"sim", "native"} {
		for _, logged := range []bool{false, true} {
			for _, c := range []struct {
				how    string
				cause  error
				scheme func() core.Scheme
			}{
				{"cc-abort", core.ErrAbort, func() core.Scheme { return twopl.New(twopl.NoWait, twopl.Options{}) }},
				{"user-abort", core.ErrUserAbort, func() core.Scheme { return twopl.New(twopl.NoWait, twopl.Options{}) }},
				{"occ-user-abort", core.ErrUserAbort, func() core.Scheme { return occ.New(tsalloc.Atomic) }},
			} {
				cause := c.cause
				t.Run(fmt.Sprintf("%s/wal=%t/%s", rtName, logged, c.how), func(t *testing.T) {
					db, a, ax, b, bx := slotDB(runtimes[rtName]())
					scheme := c.scheme()
					var sink *wal.MemSink
					if logged {
						sink = wal.NewMemSink()
						db.Wal = wal.NewWriter(sink, wal.Config{})
					}
					scheme.Setup(db)
					insert := func(tx *core.TxnCtx, x index.Index, key uint64) {
						row := tx.InsertRow(x, key)
						sc := x.Table().Schema
						sc.PutU64(row, 0, key)
						sc.PutU64(row, 1, key*7+1)
						row[len(row)-1] = 0xff
					}
					seg := func(t *storage.Table) [2]int {
						start, next := t.SegRange(0)
						return [2]int{start, next}
					}
					var before [2][2]int
					db.RT.Run(func(p rt.Proc) {
						w := core.NewWorker(p, db, scheme)
						holder := core.NewWorker(p, db, scheme)
						execRetry(t, w, func(tx *core.TxnCtx) error {
							insert(tx, ax, 100)
							insert(tx, bx, 100)
							return nil
						})
						before = [2][2]int{seg(a), seg(b)}
						fail := &cctest.Txn{Body: func(tx *core.TxnCtx) error {
							insert(tx, ax, 200)
							insert(tx, bx, 200)
							insert(tx, ax, 201)
							if cause == core.ErrUserAbort {
								return core.ErrUserAbort
							}
							_, err := tx.UpdateRow(a, 0) // holder has it locked
							return err
						}}
						var err error
						if cause == core.ErrUserAbort {
							err = w.ExecOnce(fail)
						} else if herr := holder.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
							if _, err := tx.UpdateRow(a, 0); err != nil {
								return err
							}
							err = w.ExecOnce(fail)
							return nil
						}}); herr != nil {
							t.Errorf("lock holder: %v", herr)
							return
						}
						if err != cause {
							t.Errorf("the failing attempt returned %v, want %v", err, cause)
							return
						}
						if got := [2][2]int{seg(a), seg(b)}; got != before {
							t.Errorf("allocated ranges after the failed attempt %v, want %v", got, before)
						}
						for _, tab := range []*storage.Table{a, b} {
							_, next := tab.SegRange(0)
							for s := next; s < tab.Capacity(); s++ {
								for _, c := range tab.Row(s) {
									if c != 0 {
										t.Errorf("%s slot %d past the cursor %d is not zero: %x", tab.Schema.Name, s, next, tab.Row(s))
										return
									}
								}
							}
						}
						var slots [2]int
						execRetry(t, w, func(tx *core.TxnCtx) error {
							for _, x := range []index.Index{ax, bx} {
								if _, ok := x.LoadLookup(200); ok {
									t.Errorf("%s maps the failed attempt's key", x.Table().Schema.Name)
								}
								insert(tx, x, 300)
							}
							return nil
						})
						for i, x := range []index.Index{ax, bx} {
							slots[i], _ = x.LoadLookup(300)
						}
						if slots != [2]int{before[0][1], before[1][1]} {
							t.Errorf("the next committed inserts landed on slots %v, want the released %v", slots, [2]int{before[0][1], before[1][1]})
						}
					})
					if !logged {
						return
					}
					db2, _, _, _, _ := slotDB(runtimes[rtName]())
					if _, err := core.Recover(db2, sink.Bytes()); err != nil {
						t.Fatal(err)
					}
					if core.DumpState(db2, nil) != core.DumpState(db, scheme) {
						t.Fatal("the state recovered from the log differs from the live state")
					}
				})
			}
		}
	}
}

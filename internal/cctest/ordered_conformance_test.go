// Conformance test for ordered-index reads: under every concurrency-
// control scheme, a range scan must (a) surface the transaction's own
// earlier write when the scanned slot is re-declared, (b) never surface a
// staged insert before its transaction commits — and surface it to every
// later transaction once it has — (c) never retain an aborted insert, and
// (d) read the restored pre-image after an abort, not the aborted bytes.
package cctest_test

import (
	"testing"

	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/storage"
)

// orderedFixture is the counter fixture plus an ordered index over the
// loaded keys.
func orderedFixture(cores, rows int, seed int64) (*sim.Engine, *core.DB, *storage.Table, *index.Ordered) {
	eng := sim.New(cores, seed)
	db, tab := cctest.NewCounterDB(eng, rows)
	ord := db.AddOrderedIndex("C_ORD", tab)
	for i := 0; i < rows; i++ {
		ord.LoadInsert(uint64(i), i)
	}
	return eng, db, tab, ord
}

func TestOrderedScanConformance(t *testing.T) {
	const rows = 8
	for _, s := range conformanceSchemes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			eng, db, tab, ord := orderedFixture(1, rows, 1)
			scheme := s.mk()
			scheme.Setup(db)
			eng.Run(func(p rt.Proc) {
				w := core.NewWorker(p, db, scheme)
				sc := tab.Schema
				exec := func(body func(tx *core.TxnCtx) error) error {
					return w.ExecOnce(&cctest.Txn{Body: body, Parts: []int{0}})
				}

				// scanVals range-scans [lo, hi] in its own transaction
				// and reads every returned row through the scheme.
				scanVals := func(lo, hi uint64) map[uint64]uint64 {
					vals := map[uint64]uint64{}
					if err := exec(func(tx *core.TxnCtx) error {
						for _, e := range tx.RangeScan(ord, lo, hi) {
							row, err := tx.Read(tab, int(e.Slot))
							if err != nil {
								return err
							}
							vals[e.Key] = sc.GetU64(row, 1)
						}
						return nil
					}); err != nil {
						t.Fatalf("scan transaction failed: %v", err)
					}
					return vals
				}

				// (a) A transaction that updated a row and then scans
				// finds the row's entry, and re-declaring the write on
				// the scanned slot observes the own write.
				if err := exec(func(tx *core.TxnCtx) error {
					row, err := tx.UpdateRow(tab, 3)
					if err != nil {
						return err
					}
					sc.PutU64(row, 1, 111)
					found := false
					for _, e := range tx.RangeScan(ord, 0, rows-1) {
						if e.Key != 3 {
							continue
						}
						found = true
						again, err := tx.UpdateRow(tab, int(e.Slot))
						if err != nil {
							return err
						}
						if got := sc.GetU64(again, 1); got != 111 {
							t.Errorf("scan-reached row shows %d, want own write 111", got)
						}
					}
					if !found {
						t.Error("scan did not return the updated key 3")
					}
					return nil
				}); err != nil {
					t.Fatalf("own-write transaction failed: %v", err)
				}
				if got := scanVals(0, rows-1)[3]; got != 111 {
					t.Fatalf("committed scan shows %d at key 3, want 111", got)
				}

				// (b) An ordered insert is invisible to the
				// transaction's own scan (entries are published at the
				// commit point) and visible to the next one.
				idx := db.Index("C_PK").(*index.Hash)
				if err := exec(func(tx *core.TxnCtx) error {
					row := tx.InsertRowOrdered(idx, 100, ord, 100)
					sc.PutU64(row, 0, 100)
					sc.PutU64(row, 1, 500)
					if got := len(tx.RangeScan(ord, 100, 200)); got != 0 {
						t.Errorf("own scan sees %d staged entries, want 0", got)
					}
					return nil
				}); err != nil {
					t.Fatalf("insert transaction failed: %v", err)
				}
				after := scanVals(100, 200)
				if got, ok := after[100]; !ok || got != 500 {
					t.Fatalf("committed insert: scan returned %v, want key 100 -> 500", after)
				}

				// (c) An aborted transaction's staged insert never
				// materializes.
				if err := exec(func(tx *core.TxnCtx) error {
					row := tx.InsertRowOrdered(idx, 101, ord, 101)
					sc.PutU64(row, 0, 101)
					sc.PutU64(row, 1, 600)
					return core.ErrUserAbort
				}); err != core.ErrUserAbort {
					t.Fatalf("aborting insert returned %v, want ErrUserAbort", err)
				}
				if got := scanVals(101, 200); len(got) != 0 {
					t.Fatalf("aborted insert leaked into scan: %v", got)
				}

				// (d) An aborted update's bytes are not what a later
				// scan reads — the pre-image is.
				if err := exec(func(tx *core.TxnCtx) error {
					row, err := tx.UpdateRow(tab, 3)
					if err != nil {
						return err
					}
					sc.PutU64(row, 1, 999)
					return core.ErrUserAbort
				}); err != core.ErrUserAbort {
					t.Fatalf("aborting update returned %v, want ErrUserAbort", err)
				}
				if got := scanVals(0, rows-1)[3]; got != 111 {
					t.Fatalf("scan after abort shows %d at key 3, want restored 111", got)
				}
			})
		})
	}
}

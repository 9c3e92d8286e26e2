// Conformance test for the closure-free write API: every concurrency-
// control scheme must hand out WriteRow buffers that (a) hold the row's
// current image so callers can read-modify-write, (b) observe the
// transaction's own earlier writes on repeated calls, (c) are not retained
// by the scheme past Commit/Abort — a later transaction's buffer always
// starts from committed state, and its writes never leak through a stale
// reference — and (d) leave the pre-image bytes intact after an abort. A
// WAL is attached throughout, and (b)'s commit record must carry the
// repeatedly written tuple once, with its final image.
package cctest_test

import (
	"testing"

	"abyss1000/internal/cc/hstore"
	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cc/occ"
	"abyss1000/internal/cc/to"
	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
)

// conformanceSchemes covers all six scheme implementations (all three 2PL
// variants plus the adaptive hybrid share one, but each policy runs here).
func conformanceSchemes() []struct {
	name string
	mk   func() core.Scheme
} {
	return []struct {
		name string
		mk   func() core.Scheme
	}{
		{"DL_DETECT", func() core.Scheme { return twopl.New(twopl.DLDetect, twopl.Options{}) }},
		{"NO_WAIT", func() core.Scheme { return twopl.New(twopl.NoWait, twopl.Options{}) }},
		{"WAIT_DIE", func() core.Scheme { return twopl.New(twopl.WaitDie, twopl.Options{}) }},
		{"ADAPTIVE", func() core.Scheme { return twopl.NewAdaptive(twopl.Options{}) }},
		{"TIMESTAMP", func() core.Scheme { return to.New(tsalloc.Atomic) }},
		{"OCC", func() core.Scheme { return occ.New(tsalloc.Atomic) }},
		{"MVCC", func() core.Scheme { return mvcc.New(tsalloc.Atomic) }},
		{"HSTORE", func() core.Scheme { return hstore.New(tsalloc.Atomic) }},
	}
}

func TestWriteRowConformance(t *testing.T) {
	for _, s := range conformanceSchemes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			f := cctest.NewFixture(1, 8, 1)
			sink := wal.NewMemSink()
			f.DB.Wal = wal.NewWriter(sink, wal.Config{})
			scheme := s.mk()
			scheme.Setup(f.DB)
			f.Engine.Run(func(p rt.Proc) {
				w := core.NewWorker(p, f.DB, scheme)
				sc := f.Table.Schema
				exec := func(body func(tx *core.TxnCtx) error) error {
					return w.ExecOnce(&cctest.Txn{Body: body, Parts: []int{0}})
				}
				readVal := func(slot int) uint64 {
					var v uint64
					if err := exec(func(tx *core.TxnCtx) error {
						var err error
						v, err = f.ReadVal(tx, slot)
						return err
					}); err != nil {
						t.Fatalf("read transaction failed: %v", err)
					}
					return v
				}

				// (a) The buffer arrives holding the committed image and
				// a mutation of it commits.
				if err := exec(func(tx *core.TxnCtx) error {
					row, err := tx.UpdateRow(f.Table, 0)
					if err != nil {
						return err
					}
					if got := sc.GetU64(row, 1); got != 0 {
						t.Errorf("buffer pre-image = %d, want 0", got)
					}
					sc.PutU64(row, 1, 5)
					return nil
				}); err != nil {
					t.Fatalf("write transaction failed: %v", err)
				}
				if got := readVal(0); got != 5 {
					t.Fatalf("committed value = %d, want 5", got)
				}

				// (b) A second WriteRow of the same tuple in the same
				// transaction observes the first call's mutation.
				if err := exec(func(tx *core.TxnCtx) error {
					row, err := tx.UpdateRow(f.Table, 0)
					if err != nil {
						return err
					}
					sc.PutU64(row, 1, 9)
					again, err := tx.UpdateRow(f.Table, 0)
					if err != nil {
						return err
					}
					if got := sc.GetU64(again, 1); got != 9 {
						t.Errorf("repeated WriteRow sees %d, want own write 9", got)
					}
					sc.PutU64(again, 1, sc.GetU64(again, 1)+1)
					return nil
				}); err != nil {
					t.Fatalf("RMW transaction failed: %v", err)
				}
				if got := readVal(0); got != 10 {
					t.Fatalf("committed RMW value = %d, want 10", got)
				}
				// The RMW transaction's commit record, the log's last (the
				// reads append none), holds slot 0 once, at its final value.
				recs, _, err := wal.Scan(sink.Bytes())
				if err != nil || len(recs) == 0 || recs[len(recs)-1].Commit == nil {
					t.Fatalf("log holds no commit record after the RMW transaction (%d records, err %v)", len(recs), err)
				}
				var images [][]byte
				for _, u := range recs[len(recs)-1].Commit.Updates {
					if u.Table == f.Table.ID && u.Slot == 0 {
						images = append(images, u.Image)
					}
				}
				if len(images) != 1 || sc.GetU64(images[0], 1) != 10 {
					t.Fatalf("RMW commit record carries slot 0 %d times (images %x), want once with value 10", len(images), images)
				}

				// (c)+(d) A later transaction's buffer starts from the
				// committed state, and aborting that transaction after
				// scribbling restores the pre-image bytes: nothing the
				// aborted transaction wrote is reachable afterwards, so
				// the scheme cannot have retained its buffer.
				if err := exec(func(tx *core.TxnCtx) error {
					row, err := tx.UpdateRow(f.Table, 0)
					if err != nil {
						return err
					}
					if got := sc.GetU64(row, 1); got != 10 {
						t.Errorf("post-commit buffer pre-image = %d, want 10", got)
					}
					sc.PutU64(row, 1, 99)
					return core.ErrUserAbort
				}); err != core.ErrUserAbort {
					t.Fatalf("abort transaction returned %v, want ErrUserAbort", err)
				}
				if got := readVal(0); got != 10 {
					t.Fatalf("value after abort = %d, want pre-image 10", got)
				}
			})
		})
	}
}

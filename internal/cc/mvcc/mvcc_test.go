package mvcc_test

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
)

// TestLateReaderSeesOldVersion is MVCC's defining behaviour (§2.2: "the
// DBMS does not reject a read operation because the element it targets
// has already been overwritten"): a reader older than a committed write
// gets the previous version instead of aborting — the case where basic
// TIMESTAMP would abort.
func TestLateReaderSeesOldVersion(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := mvcc.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		if p.ID() == 0 {
			// Older reader: draws its timestamp first, reads late.
			var v uint64
			err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				tx.P.Sync(stats.Useful, 50_000) // younger writer commits meanwhile
				var err error
				v, err = f.ReadVal(tx, 0)
				return err
			}})
			if err != nil {
				t.Errorf("older reader aborted: %v (MVCC must serve the old version)", err)
			}
			if v != 0 {
				t.Errorf("older reader saw %d, want the pre-write value 0", v)
			}
			return
		}
		p.Tick(stats.Useful, 5_000) // younger writer
		if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			return f.Bump(tx, 0, 42)
		}}); err != nil {
			t.Errorf("writer aborted: %v", err)
		}
	})
}

// TestYoungReaderWaitsForPending: a reader whose visible version is a
// pending write waits for resolution (the T/O WAIT component).
func TestYoungReaderWaitsForPending(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := mvcc.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		if p.ID() == 0 {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				if err := f.Bump(tx, 0, 7); err != nil {
					return err
				}
				tx.P.Sync(stats.Useful, 40_000) // pending version outstanding
				return nil
			}}); err != nil {
				t.Errorf("writer aborted: %v", err)
			}
			return
		}
		p.Tick(stats.Useful, 10_000) // younger than the pending write
		var v uint64
		if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			var err error
			v, err = f.ReadVal(tx, 0)
			return err
		}}); err != nil {
			t.Errorf("reader aborted: %v", err)
			return
		}
		if v != 7 {
			t.Errorf("reader saw %d, want 7", v)
		}
		if p.Stats().Get(stats.Wait) == 0 {
			t.Error("reader billed no WAIT time despite a pending version")
		}
	})
}

// TestWriteUnderReadAborts: writing at a timestamp older than the visible
// version's read timestamp must abort (MVTO write rule).
func TestWriteUnderReadAborts(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := mvcc.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	var late error
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		if p.ID() == 0 {
			late = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				tx.P.Sync(stats.Useful, 50_000) // a younger txn reads meanwhile
				return f.Bump(tx, 0, 1)
			}})
			return
		}
		p.Tick(stats.Useful, 5_000)
		if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			_, err := f.ReadVal(tx, 0)
			return err
		}}); err != nil {
			t.Errorf("reader aborted: %v", err)
		}
	})
	if late != core.ErrAbort {
		t.Fatalf("late write got %v, want ErrAbort", late)
	}
}

// TestAbortUnlinksPendingVersion: an aborted writer leaves no version.
func TestAbortUnlinksPendingVersion(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := mvcc.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			if err := f.Bump(tx, 0, 5); err != nil {
				return err
			}
			return core.ErrUserAbort
		}})
		// A later reader must see the original value.
		var v uint64
		if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			var err error
			v, err = f.ReadVal(tx, 0)
			return err
		}}); err != nil {
			t.Errorf("reader aborted: %v", err)
		}
		if v != 0 {
			t.Errorf("aborted write visible: %d", v)
		}
	})
	got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, 0), 1)
	if got != 0 {
		t.Fatalf("latest committed = %d, want 0", got)
	}
}

// TestVersionChainAccumulatesAndServes: successive writers build a chain;
// each commit is visible to subsequent readers via LatestCommitted.
func TestVersionChainAccumulatesAndServes(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := mvcc.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		for i := 0; i < 20; i++ {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				return f.Bump(tx, 0, 1)
			}}); err != nil {
				t.Fatalf("bump %d failed: %v", i, err)
			}
		}
	})
	got := f.Table.Schema.GetU64(scheme.LatestCommitted(f.Table, 0), 1)
	if got != 20 {
		t.Fatalf("latest committed = %d, want 20 (chain pruning lost writes?)", got)
	}
}

// TestReadOwnPendingWrite: within one transaction, reads observe the
// transaction's own pending version.
func TestReadOwnPendingWrite(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := mvcc.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			if err := f.Bump(tx, 4, 11); err != nil {
				return err
			}
			v, err := f.ReadVal(tx, 4)
			if err != nil {
				return err
			}
			if v != 11 {
				t.Errorf("own pending write invisible: %d", v)
			}
			// Second write to the same tuple updates in place.
			if err := f.Bump(tx, 4, 1); err != nil {
				return err
			}
			v, err = f.ReadVal(tx, 4)
			if v != 12 || err != nil {
				t.Errorf("second write lost: %d, %v", v, err)
			}
			return nil
		}})
		if err != nil {
			t.Errorf("txn failed: %v", err)
		}
	})
}

// TestVersionBytesStableWhileReaderActive: the bytes a reader was handed
// stay what they were for as long as its transaction runs, even when the
// watermark another worker collects garbage with is ahead of the reader. A
// batch allocator makes that ordinary: core 0 owns timestamps 1..16 and is
// idle (so invisible to a scan) between its first transaction and its
// second, which begins at 2 long after core 1 has scanned a watermark near
// 100. Core 1 then unlinks the version the reader holds; before unlinked
// buffers waited in a limbo for a scan taken after the unlink, the next
// write recycled it under the reader.
func TestVersionBytesStableWhileReaderActive(t *testing.T) {
	const gcEvery = 64 // the scheme's watermark refresh interval
	f := cctest.NewFixture(3, 8, 1)
	scheme := mvcc.New(tsalloc.Batch16)
	scheme.Setup(f.DB)
	sc := f.Table.Schema
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		bump := func(slot int) {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error { return f.Bump(tx, slot, 1) }}); err != nil {
				t.Errorf("core %d: bump of slot %d: %v", p.ID(), slot, err)
			}
		}
		until := func(cycle uint64) { p.Sync(stats.Useful, cycle-p.Now()) }
		switch p.ID() {
		case 0:
			bump(0) // version 1 of slot 0
			until(1_000_000)
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				row, err := tx.Read(f.Table, 0) // at timestamp 2: served version 1
				if err != nil {
					return err
				}
				key, val := sc.GetU64(row, 0), sc.GetU64(row, 1)
				if key != 0 || val != 1 {
					t.Errorf("reader at timestamp %d was served key/value %d/%d, want 0/1", tx.TS, key, val)
				}
				until(3_000_000) // core 1 folds slot 0 and collects meanwhile
				if k, v := sc.GetU64(row, 0), sc.GetU64(row, 1); k != key || v != val {
					t.Errorf("the row this transaction was handed changed under it: key/value %d/%d -> %d/%d", key, val, k, v)
				}
				return nil
			}}); err != nil {
				t.Errorf("reader: %v", err)
			}
		case 2:
			until(100_000)
			bump(0) // version 17 of slot 0, above the reader's
		case 1:
			until(200_000)
			for i := 0; i < gcEvery; i++ {
				bump(5) // the last of these scans with cores 0 and 2 idle
			}
			until(2_000_000) // the reader holds version 1 now
			bump(0)          // folds slot 0 to version 17, unlinking version 1
			for i := 0; i < gcEvery; i++ {
				bump(5) // new versions want buffers; one more scan, reader active
			}
		}
	})
	if got := sc.GetU64(scheme.LatestCommitted(f.Table, 0), 1); got != 3 {
		t.Errorf("slot 0 = %d after three bumps", got)
	}
	if got := sc.GetU64(scheme.LatestCommitted(f.Table, 5), 1); got != 2*gcEvery {
		t.Errorf("slot 5 = %d after %d bumps", got, 2*gcEvery)
	}
}

// TestNativeReclaimKeepsServedRowsStable is the same property on real
// goroutines, where it is a data race as well: four workers on a batch
// allocator (so most transactions begin beneath some other worker's
// watermark) bump eight counters and, in the same transactions, read others
// and hold the rows across yields while everyone else folds, collects and
// recycles. A served row must not change, no increment may be lost, and the
// race detector must have nothing to say about the collector's quiet latch.
func TestNativeReclaimKeepsServedRowsStable(t *testing.T) {
	const workers, rows, txns = 4, 8, 3000
	r := native.New(workers, 3)
	db, tab := cctest.NewCounterDB(r, rows)
	scheme := mvcc.New(tsalloc.Batch16)
	scheme.Setup(db)
	sc := tab.Schema
	var bumps atomic.Uint64
	r.Run(func(p rt.Proc) {
		w := core.NewWorker(p, db, scheme)
		var seen [2][]byte
		for i := 0; i < txns; i++ {
			a, b, c := p.Rand().Intn(rows), p.Rand().Intn(rows), p.Rand().Intn(rows)
			for {
				err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
					var held [2][]byte
					for j, slot := range [2]int{a, b} {
						row, err := tx.Read(tab, slot)
						if err != nil {
							return err
						}
						held[j], seen[j] = row, append(seen[j][:0], row...)
					}
					row, err := tx.UpdateRow(tab, c)
					if err != nil {
						return err
					}
					sc.PutU64(row, 1, sc.GetU64(row, 1)+1)
					runtime.Gosched()
					for j := range held {
						if !bytes.Equal(held[j], seen[j]) {
							t.Errorf("worker %d at timestamp %d: a row it was handed changed under it: % x -> % x", p.ID(), tx.TS, seen[j], held[j])
						}
					}
					return nil
				}})
				if err == nil {
					bumps.Add(1)
					break
				}
				if err != core.ErrAbort {
					t.Errorf("worker %d: %v", p.ID(), err)
					return
				}
				runtime.Gosched()
			}
		}
	})
	var sum uint64
	for slot := 0; slot < rows; slot++ {
		sum += sc.GetU64(scheme.LatestCommitted(tab, slot), 1)
	}
	if sum != bumps.Load() || sum != workers*txns {
		t.Fatalf("counters sum to %d after %d committed increments of %d attempted", sum, bumps.Load(), workers*txns)
	}
}

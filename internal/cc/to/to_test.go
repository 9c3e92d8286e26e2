package to_test

import (
	"testing"

	"abyss1000/internal/cc/to"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
)

// TestLateReadAborts: a reader whose timestamp precedes the tuple's last
// write must be rejected (the basic T/O read rule).
func TestLateReadAborts(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	var late error
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		if p.ID() == 0 {
			// Draw the older timestamp, then dawdle before reading a
			// tuple a younger transaction has already overwritten.
			late = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				tx.P.Sync(stats.Useful, 50_000)
				_, err := f.ReadVal(tx, 0)
				return err
			}})
			return
		}
		p.Tick(stats.Useful, 5_000) // younger timestamp
		if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			return f.Bump(tx, 0, 1)
		}}); err != nil {
			t.Errorf("younger writer failed: %v", err)
		}
	})
	if late != core.ErrAbort {
		t.Fatalf("late read got %v, want ErrAbort", late)
	}
}

// TestLateWriteAborts: a writer whose timestamp precedes a later read
// must die (the write rule: ts < rts).
func TestLateWriteAborts(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	var late error
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		if p.ID() == 0 {
			late = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				tx.P.Sync(stats.Useful, 50_000)
				return f.Bump(tx, 0, 1) // slot read by a younger txn already
			}})
			return
		}
		p.Tick(stats.Useful, 5_000)
		if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			_, err := f.ReadVal(tx, 0)
			return err
		}}); err != nil {
			t.Errorf("younger reader failed: %v", err)
		}
	})
	if late != core.ErrAbort {
		t.Fatalf("late write got %v, want ErrAbort", late)
	}
}

// TestReaderWaitsForPrewrite: a reader younger than a pending prewrite
// blocks until the writer commits, then sees the new value (never the
// dirty state).
func TestReaderWaitsForPrewrite(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		if p.ID() == 0 {
			// Older writer: prewrite slot 0, then stall before commit.
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				if err := f.Bump(tx, 0, 7); err != nil {
					return err
				}
				tx.P.Sync(stats.Useful, 40_000) // hold the prewrite pending
				return nil
			}}); err != nil {
				t.Errorf("writer aborted: %v", err)
			}
			return
		}
		p.Tick(stats.Useful, 10_000) // younger reader, arrives mid-prewrite
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
			t.Errorf("reader saw %d, want 7 (must wait for the pending write)", v)
		}
		if p.Now() < 40_000 {
			t.Errorf("reader finished at %d, before the writer committed", p.Now())
		}
	})
}

// TestOnePrewritePerTuple drives the rule the 40-byte entry rests on: while
// T1's prewrite is outstanding no second one can join it. A writer older
// than T1 is rejected by the rts T1's prewrite raised; a younger reader and
// a younger writer park behind it and go on — against the committed value,
// or the untouched one — once T1 commits or aborts.
func TestOnePrewritePerTuple(t *testing.T) {
	for _, tc := range []struct {
		name       string
		t1         error // what T1's body returns after holding its prewrite
		read, last uint64
	}{
		{name: "T1 commits", t1: nil, read: 7, last: 8},
		{name: "T1 aborts", t1: core.ErrUserAbort, read: 0, last: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := cctest.NewFixture(4, 8, 1)
			scheme := to.New(tsalloc.Atomic)
			scheme.Setup(f.DB)
			var held uint64 // T1's prewrite is outstanding at least until here
			f.Engine.Run(func(p rt.Proc) {
				w := core.NewWorker(p, f.DB, scheme)
				switch p.ID() {
				case 0: // older writer: oldest timestamp, arrives mid-prewrite
					err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
						tx.P.Sync(stats.Useful, 20_000)
						return f.Bump(tx, 0, 100)
					}})
					if err != core.ErrAbort {
						t.Errorf("older writer got %v, want ErrAbort", err)
					}
				case 1: // T1
					p.Tick(stats.Useful, 5_000)
					err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
						if err := f.Bump(tx, 0, 7); err != nil {
							return err
						}
						tx.P.Sync(stats.Useful, 40_000)
						held = tx.P.Now()
						return tc.t1
					}})
					if err != tc.t1 {
						t.Errorf("T1 got %v, want %v", err, tc.t1)
					}
				case 2: // younger reader
					p.Tick(stats.Useful, 10_000)
					var v uint64
					err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) (err error) {
						v, err = f.ReadVal(tx, 0)
						return err
					}})
					if err != nil || v != tc.read || p.Now() < held {
						t.Errorf("younger reader: err %v, read %d at %d; want %d after %d", err, v, p.Now(), tc.read, held)
					}
				case 3: // younger writer, younger than the reader too
					p.Tick(stats.Useful, 12_000)
					err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
						return f.Bump(tx, 0, 1)
					}})
					if err != nil || p.Now() < held {
						t.Errorf("younger writer: err %v at %d; want a commit after %d", err, p.Now(), held)
					}
				}
			})
			if held == 0 {
				t.Fatal("T1 never held its prewrite")
			}
			if got := f.Get(0); got != tc.last {
				t.Fatalf("slot 0 = %d, want %d", got, tc.last)
			}
		})
	}
}

// TestReadOwnWrite: a transaction reads its own buffered write.
func TestReadOwnWrite(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			if err := f.Bump(tx, 2, 9); err != nil {
				return err
			}
			v, err := f.ReadVal(tx, 2)
			if err != nil {
				return err
			}
			if v != 9 {
				t.Errorf("own write invisible: read %d", v)
			}
			return nil
		}})
		if err != nil {
			t.Errorf("txn failed: %v", err)
		}
	})
	if f.Get(2) != 9 {
		t.Fatalf("slot 2 = %d after commit", f.Get(2))
	}
}

// TestAbortDiscardsBufferedWrites: an aborted transaction leaves no trace.
func TestAbortDiscardsBufferedWrites(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			if err := f.Bump(tx, 1, 5); err != nil {
				return err
			}
			return core.ErrUserAbort
		}})
		if err != core.ErrUserAbort {
			t.Errorf("got %v", err)
		}
	})
	if f.Get(1) != 0 {
		t.Fatalf("slot 1 = %d after abort, want 0 (buffered write leaked)", f.Get(1))
	}
}

// TestRMWSeesPriorCommit: the update closure must observe the preceding
// committed value (no lost update through the buffered-write path).
func TestRMWSeesPriorCommit(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		for i := 0; i < 5; i++ {
			if err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				return f.Bump(tx, 0, 1)
			}}); err != nil {
				t.Fatalf("bump %d failed: %v", i, err)
			}
		}
	})
	if f.Get(0) != 5 {
		t.Fatalf("slot 0 = %d, want 5", f.Get(0))
	}
}

// TestTimestampsRefreshOnRestart: each attempt draws a fresh timestamp
// (§2.2: an aborted transaction "is assigned a new timestamp").
func TestTimestampsRefreshOnRestart(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	scheme := to.New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		var first, second uint64
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			first = tx.TS
			return core.ErrUserAbort
		}})
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			second = tx.TS
			return nil
		}})
		if second <= first {
			t.Errorf("timestamps not refreshed: %d then %d", first, second)
		}
	})
}

package core_test

import (
	"strings"
	"testing"

	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

func TestResultMath(t *testing.T) {
	r := core.Result{
		Commits:       1500,
		Aborts:        500,
		Tuples:        24_000,
		MeasureCycles: 1_000_000,
		Frequency:     1e9,
	}
	if got := r.Throughput(); got != 1.5e9/1e3 {
		t.Fatalf("throughput = %v", got)
	}
	if got := r.TuplesPerSec(); got != 24e9/1e3 {
		t.Fatalf("tuples/s = %v", got)
	}
	if got := r.AbortFraction(); got != 0.25 {
		t.Fatalf("abort fraction = %v", got)
	}
	if got := r.AbortsPerSec(); got != 5e8/1e3 {
		t.Fatalf("aborts/s = %v", got)
	}
	empty := core.Result{MeasureCycles: 1, Frequency: 1}
	if empty.AbortFraction() != 0 {
		t.Fatal("empty abort fraction")
	}
}

func TestResultString(t *testing.T) {
	r := core.Result{Scheme: "NO_WAIT", Workers: 8, Commits: 100, MeasureCycles: 1_000_000, Frequency: 1e9}
	s := r.String()
	for _, want := range []string{"NO_WAIT", "8 cores", "txn/s", "abort"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Result.String() missing %q: %s", want, s)
		}
	}
}

func TestDBIndexPanicsOnMissing(t *testing.T) {
	f := cctest.NewFixture(1, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.DB.Index("NO_SUCH_INDEX")
}

// TestDeferredInsertVisibility: a staged insert is invisible until commit
// and visible (row + index) after.
func TestDeferredInsertVisibility(t *testing.T) {
	f := cctest.NewFixture(1, 4, 1)
	scheme := twopl.New(twopl.NoWait, twopl.Options{})
	scheme.Setup(f.DB)
	idx := f.DB.Index("C_PK").(*index.Hash)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			row := tx.InsertRow(idx, 1000)
			f.Table.Schema.PutU64(row, 0, 1000)
			f.Table.Schema.PutU64(row, 1, 77)
			// Invisible inside the transaction: no index entry
			// until the commit point.
			if _, ok := tx.Lookup(idx, 1000); ok {
				t.Error("staged insert visible before commit")
			}
			return nil
		}})
		if err != nil {
			t.Fatalf("insert txn failed: %v", err)
		}
		// Visible afterwards.
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			slot, ok := tx.Lookup(idx, 1000)
			if !ok {
				t.Error("committed insert not in index")
				return nil
			}
			row, err := tx.Read(f.Table, slot)
			if err != nil {
				return err
			}
			if f.Table.Schema.GetU64(row, 1) != 77 {
				t.Error("inserted row data wrong")
			}
			return nil
		}})
	})
}

// TestAbortedInsertNeverMaterializes: a user abort drops its inserts.
func TestAbortedInsertNeverMaterializes(t *testing.T) {
	f := cctest.NewFixture(1, 4, 1)
	scheme := twopl.New(twopl.NoWait, twopl.Options{})
	scheme.Setup(f.DB)
	idx := f.DB.Index("C_PK").(*index.Hash)
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			row := tx.InsertRow(idx, 2000)
			f.Table.Schema.PutU64(row, 0, 2000)
			return core.ErrUserAbort
		}})
		_ = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			if _, ok := tx.Lookup(idx, 2000); ok {
				t.Error("aborted insert materialized")
			}
			return nil
		}})
	})
}

// TestRunCountsOnlyMeasurementWindow: commits before warmup are excluded.
func TestRunCountsOnlyMeasurementWindow(t *testing.T) {
	f := cctest.NewFixture(2, 64, 1)
	scheme := twopl.New(twopl.NoWait, twopl.Options{})
	wl := &tinyWorkload{f: f}
	res := core.Run(f.DB, scheme, wl, core.Config{
		WarmupCycles:  200_000,
		MeasureCycles: 200_000,
	})
	// Each txn takes ~2k cycles; commits across the full 400k window
	// would be about twice the measured count.
	if res.Commits == 0 {
		t.Fatal("no commits measured")
	}
	perWorkerTotal := wl.total / 2
	if res.Commits >= perWorkerTotal*2 {
		t.Fatalf("measured commits %d not windowed (total executed %d)", res.Commits, wl.total)
	}
}

// TestRunCountsWarmupStraddler: a transaction that begins in warm-up and
// commits inside the window counts, like any other in-window outcome. The
// only worker's first transaction ticks across the end of warm-up; its
// second commits after the window has closed.
func TestRunCountsWarmupStraddler(t *testing.T) {
	f := cctest.NewFixture(1, 4, 1)
	wl := &hotRowWorkload{txns: []cctest.Txn{{Body: func(tx *core.TxnCtx) error {
		tx.P.Tick(stats.Useful, 1_500)
		return nil
	}}}}
	res := core.Run(f.DB, twopl.New(twopl.NoWait, twopl.Options{}), wl, core.Config{WarmupCycles: 1_000, MeasureCycles: 1_000})
	if res.Commits != 1 || res.Latency.Count() != 1 {
		t.Fatalf("got %d commits and %d latencies, want the straddler's 1", res.Commits, res.Latency.Count())
	}
}

type tinyWorkload struct {
	f     *cctest.Fixture
	total uint64
	txns  [2]tinyTxn
}

type tinyTxn struct {
	wl   *tinyWorkload
	slot int
}

func (w *tinyWorkload) Next(p rt.Proc) core.Txn {
	w.total++
	t := &w.txns[p.ID()]
	t.wl = w
	t.slot = (p.ID()*31 + int(w.total)) % 64
	return t
}

func (t *tinyTxn) Run(tx *core.TxnCtx) error {
	_, err := tx.Read(t.wl.f.Table, t.slot)
	tx.P.Tick(stats.Useful, 1000)
	return err
}

func (t *tinyTxn) Partitions() []int { return nil }

package hstore

// H-STORE owns its lock order: a transaction declares the partitions it
// touches in any order, repeats allowed, and Begin locks each once, in
// ascending order. A scheme that trusted the declared set would wait on
// its own lock for [0, 0] and deadlock [1, 0] beside [0, 1]; on the
// simulator both spin in ParkTimeout for ever, so each run is bounded.

import (
	"slices"
	"testing"
	"time"

	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
)

// orderBound is the wall clock a run of these tests may take; a normal one
// takes milliseconds.
const orderBound = 5 * time.Second

// bounded runs f.Engine.Run(body) and fails t if it has not returned
// within orderBound. A hung run keeps spinning until the test binary exits.
func bounded(t *testing.T, f *cctest.Fixture, body func(p rt.Proc)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Engine.Run(body)
	}()
	select {
	case <-done:
	case <-time.After(orderBound):
		t.Fatalf("the run did not end within %v: a transaction waits for a partition it holds, or two for each other's", orderBound)
	}
}

// lockOrder is the order Begin locked tx's partitions in.
func lockOrder(tx *core.TxnCtx) []int {
	return slices.Clone(tx.State.(*txnState).held)
}

// TestDeclaredOrderIsNormalized: whatever order and repeats a transaction
// declares, it commits having locked each partition once, ascending.
func TestDeclaredOrderIsNormalized(t *testing.T) {
	for _, tc := range []struct {
		declared, locked []int
	}{
		{[]int{0, 0}, []int{0}},
		{[]int{1, 0}, []int{0, 1}},
		{[]int{3, 1, 3, 0, 2, 1}, []int{0, 1, 2, 3}},
	} {
		f := cctest.NewFixture(4, 8, 1) // four partitions; worker 0 runs
		scheme := New(tsalloc.Atomic)
		scheme.Setup(f.DB)
		var got []int
		bounded(t, f, func(p rt.Proc) {
			if p.ID() != 0 {
				return
			}
			w := core.NewWorker(p, f.DB, scheme)
			err := w.ExecOnce(&cctest.Txn{
				Parts: tc.declared,
				Body: func(tx *core.TxnCtx) error {
					got = lockOrder(tx)
					return f.Bump(tx, 0, 1)
				},
			})
			if err != nil {
				t.Errorf("declared %v: %v", tc.declared, err)
			}
		})
		if !slices.Equal(got, tc.locked) {
			t.Errorf("declared %v: locked %v, want %v", tc.declared, got, tc.locked)
		}
		if f.Get(0) != 1 {
			t.Errorf("declared %v: slot 0 = %d, want 1", tc.declared, f.Get(0))
		}
		for _, pid := range tc.locked {
			if pt := &scheme.parts[pid]; pt.locked || len(pt.waiters) != 0 {
				t.Errorf("declared %v: partition %d still held after commit", tc.declared, pid)
			}
		}
	}
}

// TestOppositeDeclarationsBothCommit: two concurrent transactions that
// declare [1, 0] and [0, 1] both lock 0 before 1, so one waits for the
// other instead of each holding the partition the other needs.
func TestOppositeDeclarationsBothCommit(t *testing.T) {
	f := cctest.NewFixture(2, 8, 1)
	scheme := New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	declared := [][]int{{1, 0}, {0, 1}}
	orders := make([][]int, 2)
	bounded(t, f, func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, scheme)
		id := p.ID()
		err := w.ExecOnce(&cctest.Txn{
			Parts: declared[id],
			Body: func(tx *core.TxnCtx) error {
				orders[id] = lockOrder(tx)
				if err := f.Bump(tx, 0, 1); err != nil {
					return err
				}
				tx.P.Sync(stats.Useful, 10_000)
				return f.Bump(tx, 1, 1)
			},
		})
		if err != nil {
			t.Errorf("txn %d (declared %v): %v", id, declared[id], err)
		}
	})
	for id, got := range orders {
		if !slices.Equal(got, []int{0, 1}) {
			t.Errorf("txn %d declared %v and locked %v, want [0 1]", id, declared[id], got)
		}
	}
	if f.Get(0) != 2 || f.Get(1) != 2 {
		t.Fatalf("slots = %d/%d, want 2/2", f.Get(0), f.Get(1))
	}
}

// TestBeginAllocatesNothing: sorting and deduplicating the declared set
// reuses the worker's lock-order slice, so a steady-state Begin and
// Commit allocate nothing.
func TestBeginAllocatesNothing(t *testing.T) {
	f := cctest.NewFixture(4, 8, 1) // four partitions; worker 0 runs
	scheme := New(tsalloc.Atomic)
	scheme.Setup(f.DB)
	txn := &cctest.Txn{
		Parts: []int{3, 1, 3, 0},
		Body:  func(*core.TxnCtx) error { return nil },
	}
	bounded(t, f, func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		w := core.NewWorker(p, f.DB, scheme)
		if allocs := testing.AllocsPerRun(100, func() { _ = w.ExecOnce(txn) }); allocs != 0 {
			t.Errorf("ExecOnce of a declared [3 1 3 0] allocates %.1f times, want 0", allocs)
		}
	})
}

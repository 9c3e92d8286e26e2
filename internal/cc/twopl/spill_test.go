package twopl

import (
	"slices"
	"testing"
	"unsafe"

	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

// The lock word is 24 bytes; a stray field shows up here as a one-line diff.
func TestLockEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(lockEntry{}); got != 24 {
		t.Fatalf("lockEntry is %d bytes, want 24", got)
	}
}

// TestHolderListMatchesSlice drives one entry through 1 → 3 sharers and
// releases them in every order, holding the inline-first/spilled list
// against the plain slice it replaced (append on grant, shift-delete on
// release) after every step.
func TestHolderListMatchesSlice(t *testing.T) {
	a, b, c, d := &txnState{}, &txnState{}, &txnState{}, &txnState{}
	orders := [][3]*txnState{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}}
	for _, order := range orders {
		var e lockEntry
		var model []*txnState
		check := func(step string) {
			t.Helper()
			if !slices.Equal(e.holders(), model) {
				t.Fatalf("%s: holders %p, slice model %p", step, e.holders(), model)
			}
		}
		e.addHolder(a)
		model = append(model, a)
		check("first sharer")
		if e.spill != nil || !e.soleHolder(a) {
			t.Fatal("a single holder must live in the entry, with no spill")
		}
		for _, st := range []*txnState{b, c} {
			e.addHolder(st)
			model = append(model, st)
			check("further sharer")
		}
		if e.spill == nil || e.soleHolder(a) {
			t.Fatal("a second holder must attach the spill")
		}
		for _, st := range order {
			e.dropHolder(st)
			model = slices.DeleteFunc(model, func(h *txnState) bool { return h == st })
			check("release")
		}
		// The spill is kept, and keeps working, once the tuple goes quiet.
		e.addHolder(d)
		if sp := e.spill; sp == nil || !e.soleHolder(d) || e.first[0] != nil {
			t.Fatal("a spilled entry must keep its list behind the spill")
		}
	}
}

// until advances p's clock to the absolute cycle at (an ordering point, so
// whatever other cores did before then is visible afterwards).
func until(p rt.Proc, at uint64) { p.Sync(stats.Useful, at-p.Now()) }

// waitersOf projects a wait queue onto what the assertions compare.
func waitersOf(e *lockEntry) (sts []*txnState, upgrades []bool) {
	for _, w := range e.waiters() {
		sts = append(sts, w.st)
		upgrades = append(upgrades, w.upgrade)
	}
	return sts, upgrades
}

// TestSpilledQueueOrder runs one tuple through three sharers, an exclusive
// waiter, and an upgrade that must jump ahead of it, then releases the other
// two sharers in both orders: the upgrade is granted when its owner is the
// sole holder, the exclusive waiter after that, and the holder list and the
// queue read exactly as the slices they replace would at every probe.
func TestSpilledQueueOrder(t *testing.T) {
	for _, firstOut := range []int{0, 2} {
		f := cctest.NewFixture(5, 8, 1)
		scheme := NewWithTimeout(NoTimeout, true) // wait for the grant: no timeout, no detector
		scheme.Setup(f.DB)
		e := scheme.meta[f.Table.ID].entries.At(0)
		releaseAt := map[int]uint64{firstOut: 30_000, 2 - firstOut: 40_000}
		var sts [4]*txnState
		errs := make([]error, 4)
		f.Engine.Run(func(p rt.Proc) {
			id := p.ID()
			if id == 4 { // the probe
				expect := func(at uint64, mode lockMode, holders, queue []*txnState, upgrades []bool) {
					until(p, at)
					q, ups := waitersOf(e)
					if e.mode != mode || !slices.Equal(e.holders(), holders) || !slices.Equal(q, queue) || !slices.Equal(ups, upgrades) {
						t.Errorf("first out %d, cycle %d: mode %d holders %p queue %p %v; want mode %d holders %p queue %p %v",
							firstOut, at, e.mode, e.holders(), q, ups, mode, holders, queue, upgrades)
					}
				}
				expect(20_000, modeShared, sts[:3], []*txnState{sts[1], sts[3]}, []bool{true, false})
				left := []*txnState{sts[1], sts[2]}
				if firstOut == 2 {
					left = []*txnState{sts[0], sts[1]}
				}
				expect(35_000, modeShared, left, []*txnState{sts[1], sts[3]}, []bool{true, false})
				expect(50_000, modeExcl, []*txnState{sts[1]}, []*txnState{sts[3]}, []bool{false})
				return
			}
			w := core.NewWorker(p, f.DB, scheme)
			switch id {
			case 0, 2: // sharers that only read
				p.Tick(stats.Useful, uint64(id+1)*1000)
				errs[id] = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
					sts[id] = tx.State.(*txnState)
					if _, err := f.ReadVal(tx, 0); err != nil {
						return err
					}
					until(tx.P, releaseAt[id])
					return nil
				}})
			case 1: // the sharer that upgrades
				p.Tick(stats.Useful, 2000)
				errs[id] = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
					sts[id] = tx.State.(*txnState)
					if _, err := f.ReadVal(tx, 0); err != nil {
						return err
					}
					until(tx.P, 10_000)
					if err := f.Bump(tx, 0, 1); err != nil { // queues at the head, granted at 40 000
						return err
					}
					until(tx.P, 60_000)
					return nil
				}})
			case 3: // the exclusive waiter, queued before the upgrade arrives
				p.Tick(stats.Useful, 5000)
				errs[id] = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
					sts[id] = tx.State.(*txnState)
					return f.Bump(tx, 0, 1)
				}})
			}
		})
		for id, err := range errs {
			if err != nil {
				t.Errorf("first out %d: worker %d: %v", firstOut, id, err)
			}
		}
		if got := f.Get(0); got != 2 {
			t.Errorf("first out %d: counter = %d, want 2 (the upgrade's bump, then the waiter's)", firstOut, got)
		}
		if q, _ := waitersOf(e); e.mode != modeFree || len(e.holders()) != 0 || len(q) != 0 || e.spill == nil {
			t.Errorf("first out %d: entry not back to free-with-spill: mode %d, %d holders, %d queued, spill %p",
				firstOut, e.mode, len(e.holders()), len(q), e.spill)
		}
	}
}

// TestWaitDieQueueYoungestFirst: three transactions older than the holder
// queue in the order 2, 1, 3 by age; WAIT_DIE keeps them youngest first, so
// the queue must read 3, 2, 1 — and every one of them gets the lock.
func TestWaitDieQueueYoungestFirst(t *testing.T) {
	f := cctest.NewFixture(5, 8, 1)
	scheme := New(WaitDie, Options{})
	scheme.Setup(f.DB)
	e := scheme.meta[f.Table.ID].entries.At(0)
	requestAt := [3]uint64{12_000, 10_000, 14_000}
	var sts [4]*txnState
	errs := make([]error, 4)
	f.Engine.Run(func(p rt.Proc) {
		id := p.ID()
		if id == 4 { // the probe
			until(p, 20_000)
			if q, _ := waitersOf(e); !slices.Equal(q, []*txnState{sts[2], sts[1], sts[0]}) || !e.soleHolder(sts[3]) {
				t.Errorf("queue %p behind holder %p; want %p behind %p", q, e.holders(), []*txnState{sts[2], sts[1], sts[0]}, sts[3])
			}
			return
		}
		w := core.NewWorker(p, f.DB, scheme)
		if id == 3 { // the holder: the youngest, so everyone older may wait for it
			p.Tick(stats.Useful, 5000)
			errs[id] = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
				sts[id] = tx.State.(*txnState)
				if err := f.Bump(tx, 0, 1); err != nil {
					return err
				}
				until(tx.P, 60_000)
				return nil
			}})
			return
		}
		p.Tick(stats.Useful, uint64(id+1)*1000) // begin, and draw timestamps, in id order
		errs[id] = w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			sts[id] = tx.State.(*txnState)
			until(tx.P, requestAt[id])
			return f.Bump(tx, 0, 1)
		}})
	})
	for id, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", id, err)
		}
	}
	if got := f.Get(0); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
}

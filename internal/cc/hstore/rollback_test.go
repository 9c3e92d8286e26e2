package hstore_test

import (
	"bytes"
	"strings"
	"testing"

	"abyss1000/internal/cc/hstore"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// declaredTxn is a scripted transaction that declares whether it may roll
// back.
type declaredTxn struct {
	cctest.Txn
	may bool
}

func (t *declaredTxn) MayRollBack() bool { return t.may }

// runtimes are the two runtimes the rollback contract is checked on, each
// with one core.
var runtimes = []struct {
	name string
	new  func() rt.Runtime
}{
	{"sim", func() rt.Runtime { return sim.New(1, 1) }},
	{"native", func() rt.Runtime { return native.New(1, 1) }},
}

// onOneWorker builds a counter database on r, sets H-STORE up on it and
// runs body on its one worker.
func onOneWorker(r rt.Runtime, body func(w *core.Worker, tab *storage.Table)) {
	db, tab := cctest.NewCounterDB(r, 8)
	scheme := hstore.New(tsalloc.Atomic)
	scheme.Setup(db)
	r.Run(func(p rt.Proc) { body(core.NewWorker(p, db, scheme), tab) })
}

// writeTwo returns a body that bumps slots 0 and 3, then returns end.
func writeTwo(tab *storage.Table, end error) func(tx *core.TxnCtx) error {
	return func(tx *core.TxnCtx) error {
		for _, slot := range []int{0, 3} {
			row, err := tx.UpdateRow(tab, slot, 1)
			if err != nil {
				return err
			}
			tab.Schema.PutU64(row, 1, tab.Schema.GetU64(row, 1)+7)
		}
		return end
	}
}

// TestDeclaredRollbackRestoresRows: a transaction that says it may roll
// back, writes two rows and returns ErrUserAbort leaves every row
// byte-identical to what it was.
func TestDeclaredRollbackRestoresRows(t *testing.T) {
	for _, r := range runtimes {
		t.Run(r.name, func(t *testing.T) {
			onOneWorker(r.new(), func(w *core.Worker, tab *storage.Table) {
				before := bytes.Clone(tab.Rows(0, tab.Loaded()))
				txn := &declaredTxn{Txn: cctest.Txn{Parts: []int{0}, Body: writeTwo(tab, core.ErrUserAbort)}, may: true}
				if err := w.ExecOnce(txn); err != core.ErrUserAbort {
					t.Errorf("ExecOnce = %v, want ErrUserAbort", err)
				}
				if !bytes.Equal(tab.Rows(0, tab.Loaded()), before) {
					t.Error("a rolled-back transaction left its writes in the table")
				}
			})
		})
	}
}

// TestUndeclaredRollbackPanics: a transaction that says it cannot roll
// back and then does, after writing, panics in Abort naming the contract,
// rather than leaving its writes behind. The panic fires on the worker,
// so it is recovered there.
func TestUndeclaredRollbackPanics(t *testing.T) {
	for _, r := range runtimes {
		t.Run(r.name, func(t *testing.T) {
			var msg string
			onOneWorker(r.new(), func(w *core.Worker, tab *storage.Table) {
				defer func() {
					s, _ := recover().(string)
					msg = s
				}()
				txn := &declaredTxn{Txn: cctest.Txn{Parts: []int{0}, Body: writeTwo(tab, core.ErrUserAbort)}}
				_ = w.ExecOnce(txn)
			})
			if !strings.Contains(msg, "MayRollBack() is false rolled back") {
				t.Fatalf("recovered %q, want the declared-contract panic", msg)
			}
		})
	}
}

// TestNoRollbackWriteTakesNoImage: a transaction that cannot roll back
// commits its writes with no undo image: WriteRow bills no Manager cycles
// and allocates nothing, neither on the Go heap nor in the transaction's
// arena.
func TestNoRollbackWriteTakesNoImage(t *testing.T) {
	for _, r := range runtimes {
		t.Run(r.name, func(t *testing.T) {
			onOneWorker(r.new(), func(w *core.Worker, tab *storage.Table) {
				var manager uint64
				bump := writeTwo(tab, nil)
				txn := &declaredTxn{Txn: cctest.Txn{Parts: []int{0}, Body: func(tx *core.TxnCtx) error {
					m := tx.P.Stats().Get(stats.Manager)
					if err := bump(tx); err != nil {
						return err
					}
					manager += tx.P.Stats().Get(stats.Manager) - m
					for _, e := range tx.Writes() {
						if e.Undo != nil {
							t.Errorf("%s slot %d has an undo image", e.T.Schema.Name, e.Slot)
						}
					}
					return nil
				}}}
				if allocs := testing.AllocsPerRun(100, func() { _ = w.ExecOnce(txn) }); allocs != 0 {
					t.Errorf("ExecOnce of a two-write transaction that cannot roll back allocates %.1f times, want 0", allocs)
				}
				if manager != 0 {
					t.Errorf("WriteRow billed %d Manager cycles, want 0", manager)
				}
			})
		})
	}
}

package core_test

import (
	"runtime"
	"testing"

	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
)

// hotRowWorkload has every worker run the same transaction: write-lock one
// hot row, then give up the CPU while holding the lock — the preemption of
// a lock holder, staged on purpose so the test does not wait for the Go
// scheduler to produce one.
type hotRowWorkload struct{ txns []cctest.Txn }

func (w *hotRowWorkload) Next(p rt.Proc) core.Txn { return &w.txns[p.ID()] }

// TestNativeBackoffYieldsToLockHolder pins the native restart penalty: a
// transaction that dies under WAIT_DIE must give up its OS thread while it
// backs off. On one CPU, the three younger transactions that find the hot
// row locked die and restart; if the backoff only bills modelled cycles
// that loop never blocks, the descheduled holder runs again only when the
// runtime's 10 ms forced preemption has cycled through all three spinners,
// and a 20 ms window closes with a handful of commits at most. Yielding in
// the backoff hands the CPU straight back to the holder.
func TestNativeBackoffYieldsToLockHolder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := native.New(4, 7)
	db, tab := cctest.NewCounterDB(r, 4)
	wl := &hotRowWorkload{txns: make([]cctest.Txn, 4)}
	for i := range wl.txns {
		wl.txns[i].Body = func(tx *core.TxnCtx) error {
			row, err := tx.UpdateRow(tab, 0)
			if err != nil {
				return err
			}
			tab.Schema.PutU64(row, 1, tab.Schema.GetU64(row, 1)+1)
			runtime.Gosched()
			return nil
		}
	}
	scheme := twopl.New(twopl.WaitDie, twopl.Options{})
	res := core.Run(db, scheme, wl, core.Config{MeasureCycles: 20_000_000, AbortBackoff: 500}) // ns
	if res.Commits < 100 {
		t.Fatalf("lock holder starved behind dying transactions: %d commits, %d aborts in 20 ms", res.Commits, res.Aborts)
	}
	t.Logf("%d commits, %d aborts", res.Commits, res.Aborts)
}

// Capture-and-verify conformance: every registered scheme runs a
// contentious read-modify-write workload with history capture enabled,
// and the captured history must be serializable (acyclic direct
// serialization graph) AND final-state equivalent to a single-threaded
// replay. This is the correctness gate every future scheme inherits: a
// scheme that loses updates, serves fractured reads, or installs wrong
// bytes fails here with a concrete cycle or state diff.
package cctest_test

import (
	"sync/atomic"
	"testing"

	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
)

// rmwWorkload hammers a small counter table: each transaction reads one
// slot and increments two others, with slots drawn from a tiny hot set
// so every scheme sees real conflicts.
type rmwWorkload struct {
	db     *core.DB
	rows   int
	nparts int
	txns   []rmwTxn

	// A run bounded by work instead of by its window: once stopAfter
	// (when positive) transactions have committed, stop is set. The run is
	// a closed loop with no RetryLimit or Deadline, so a worker asks for
	// its next transaction only after the previous one committed: every
	// Next after a worker's first counts one commit.
	stopAfter int64
	commits   atomic.Int64
	stop      atomic.Bool
}

type rmwTxn struct {
	w      *rmwWorkload
	slots  [3]int
	parts  []int
	issued bool // Next has handed this worker a transaction before
}

func newRMWWorkload(db *core.DB, rows int) *rmwWorkload {
	w := &rmwWorkload{db: db, rows: rows, nparts: db.NParts}
	w.txns = make([]rmwTxn, db.RT.NumProcs())
	for i := range w.txns {
		w.txns[i].w = w
	}
	return w
}

func (w *rmwWorkload) Next(p rt.Proc) core.Txn {
	t := &w.txns[p.ID()]
	if t.issued && w.stopAfter > 0 && w.commits.Add(1) >= w.stopAfter {
		w.stop.Store(true)
	}
	t.issued = true
	r := p.Rand()
	for i := range t.slots {
		t.slots[i] = int(r.Int63n(int64(w.rows)))
	}
	// H-STORE needs the partition set up front, in any order.
	t.parts = t.parts[:0]
	for _, s := range t.slots {
		t.parts = append(t.parts, s%w.nparts)
	}
	return t
}

func (t *rmwTxn) Partitions() []int { return t.parts }

func (t *rmwTxn) Run(tx *core.TxnCtx) error {
	tab := t.w.db.Catalog.Table("C")
	sc := tab.Schema
	if _, err := tx.Read(tab, t.slots[2]); err != nil {
		return err
	}
	for _, slot := range t.slots[:2] {
		row, err := tx.UpdateRow(tab, slot)
		if err != nil {
			return err
		}
		sc.PutU64(row, 1, sc.GetU64(row, 1)+1)
	}
	return nil
}

// runCaptureVerify populates a counter database on r, runs the RMW
// workload with capture on — to the end of cfg's window, or until
// stopAfter commits when that is positive — and checks the history.
func runCaptureVerify(t *testing.T, r rt.Runtime, scheme core.Scheme, cfg core.Config, stopAfter int64) {
	t.Helper()
	const rows = 8 // tiny: force write-write and read-write conflicts
	db, _ := cctest.NewCounterDB(r, rows)
	wl := newRMWWorkload(db, rows)
	wl.stopAfter = stopAfter
	cfg.Check = true
	res := core.Run(db, scheme, wl, cfg.WithStop(&wl.stop))
	if got := db.Cap.Committed(); got == 0 {
		t.Fatalf("capture recorded no transactions (result: %s)", res)
	}
	rep := core.VerifyCapture(db, scheme)
	if !rep.OK() {
		t.Fatalf("%s failed serializability verification:\n%s", scheme.Name(), rep)
	}
}

func TestCaptureVerifyConformanceSim(t *testing.T) {
	for _, s := range conformanceSchemes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := core.Config{WarmupCycles: 50_000, MeasureCycles: 250_000, AbortBackoff: 500}
			runCaptureVerify(t, sim.New(4, 7), s.mk(), cfg, 0)
		})
	}
}

func TestCaptureVerifyConformanceNative(t *testing.T) {
	for _, s := range conformanceSchemes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			// Native windows are wall-clock nanoseconds, and a busy host
			// can let a short one pass with nothing committed: bound the
			// run by work, under a window it never reaches.
			cfg := core.Config{WarmupCycles: 200_000, MeasureCycles: 30_000_000_000, AbortBackoff: 500}
			runCaptureVerify(t, native.New(4, 7), s.mk(), cfg, 2000)
		})
	}
}

package bench

import (
	"fmt"
	"strings"

	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/ycsb"
)

// The scheme calls the ledger bills, in print order. Begin, read, write
// and commit are measured in transactions that commit; abort is the
// rollback of a transaction that wrote one row and then gave up by
// program logic (ErrUserAbort), which declares that it may.
const (
	opBegin = iota
	opRead
	opWrite
	opCommit
	opAbort
	numOps
)

var ledgerOps = [numOps]string{"begin", "read", "write", "commit", "abort"}

// Ledger runs each of the seven schemes on one simulated core over an
// uncontended YCSB table (1 008-byte rows, partitioned for H-STORE) and
// returns what each scheme bills per call, per component: the cycles its
// Begin, Read, WriteRow, Commit and Abort add to the core's breakdown,
// averaged over every call in a fixed window. Each transaction reads one
// column of one row and writes one column of another; every second one
// then rolls back. testdata/ledger.txt pins the output; a change to what
// a scheme bills shows there first. Regenerate it after an intentional
// billing change with `go run ./cmd/goldencheck -ledger > testdata/ledger.txt`.
func Ledger() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s", "scheme", "op")
	for c := stats.Component(0); c < stats.NumPaperComponents; c++ {
		fmt.Fprintf(&b, " %10s", c.Key())
	}
	b.WriteByte('\n')
	for _, name := range AllSchemeNames {
		eng := sim.New(1, 42)
		db := core.NewDB(eng)
		cfg := ycsb.DefaultConfig()
		cfg.Rows = 1024
		cfg.Partitioned = name == "HSTORE"
		tab := ycsb.Build(db, cfg).Table()
		l := &ledgerScheme{Scheme: MakeScheme(name, tsalloc.Atomic)}
		core.Run(db, l, &ledgerWorkload{tab: tab}, core.Config{MeasureCycles: 200_000})
		for op, tot := range l.ops {
			fmt.Fprintf(&b, "%-10s %-7s", name, ledgerOps[op])
			for _, v := range tot.cycles {
				fmt.Fprintf(&b, " %10.1f", float64(v)/float64(max(tot.calls, 1)))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ledgerTotal sums one op's calls and the cycles they billed.
type ledgerTotal struct {
	calls  uint64
	cycles [stats.NumPaperComponents]uint64
}

// ledgerScheme wraps a scheme and bills each call's breakdown delta to
// its op, in the order of ledgerOps.
type ledgerScheme struct {
	core.Scheme
	ops [numOps]ledgerTotal
}

// measure runs f and adds what it billed on tx's core to op, unless the
// call belongs to a rolled-back transaction and op is not abort.
func (l *ledgerScheme) measure(tx *core.TxnCtx, op int, f func()) {
	if tx.Txn.(*ledgerTxn).abort && op != opAbort {
		f()
		return
	}
	var before [stats.NumPaperComponents]uint64
	st := tx.P.Stats()
	for c := range before {
		before[c] = st.Get(stats.Component(c))
	}
	f()
	st = tx.P.Stats()
	t := &l.ops[op]
	t.calls++
	for c := range t.cycles {
		t.cycles[c] += st.Get(stats.Component(c)) - before[c]
	}
}

func (l *ledgerScheme) Begin(tx *core.TxnCtx) {
	l.measure(tx, opBegin, func() { l.Scheme.Begin(tx) })
}

func (l *ledgerScheme) Read(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) (row []byte, err error) {
	l.measure(tx, opRead, func() { row, err = l.Scheme.Read(tx, t, slot, cols) })
	return row, err
}

func (l *ledgerScheme) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int, cols uint64) (row []byte, err error) {
	l.measure(tx, opWrite, func() { row, err = l.Scheme.WriteRow(tx, t, slot, cols) })
	return row, err
}

func (l *ledgerScheme) Commit(tx *core.TxnCtx) (err error) {
	l.measure(tx, opCommit, func() { err = l.Scheme.Commit(tx) })
	return err
}

func (l *ledgerScheme) Abort(tx *core.TxnCtx) {
	l.measure(tx, opAbort, func() { l.Scheme.Abort(tx) })
}

// ledgerWorkload hands its one core a committing and a rolling-back
// transaction in turn, each over the next two rows of the table.
type ledgerWorkload struct {
	tab *storage.Table
	n   int
	txn ledgerTxn
}

func (w *ledgerWorkload) Next(rt.Proc) core.Txn {
	rows := w.tab.Loaded()
	w.txn = ledgerTxn{tab: w.tab, read: w.n % rows, write: (w.n + 1) % rows, abort: w.n%4 == 2}
	w.n += 2
	return &w.txn
}

// ledgerTxn reads column 1 of one row and writes column 2 of another,
// then commits or rolls back.
type ledgerTxn struct {
	tab         *storage.Table
	read, write int
	abort       bool
}

func (t *ledgerTxn) Run(tx *core.TxnCtx) error {
	if _, err := tx.Read(t.tab, t.read, 1); err != nil {
		return err
	}
	row, err := tx.UpdateRow(t.tab, t.write, 2)
	if err != nil {
		return err
	}
	row[t.tab.Schema.Offset(2)]++
	if t.abort {
		return core.ErrUserAbort
	}
	return nil
}

func (t *ledgerTxn) Partitions() []int { return []int{0} }

func (t *ledgerTxn) MayRollBack() bool { return t.abort }

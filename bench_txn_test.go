package abyss1000_test

import (
	"math"
	"testing"

	"abyss1000/internal/cc/hstore"
	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cc/occ"
	"abyss1000/internal/cc/to"
	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/native"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

// Transaction-path benchmarks: one committed transaction per iteration on
// the native runtime, exercising the DBMS access path (index probe, scheme
// read/write, commit) without simulator overhead. Run with -benchmem: the
// headline number is allocs/op, which must stay ~0 after warm-up — the
// paper's §4.1 finding is that per-access memory allocation is the first
// scalability wall of a main-memory DBMS, and the access path is designed
// to be steady-state allocation-free (closure-free scheme API, arena
// buffers, reused read/write sets, preallocated index storage).
// TestTxnAllocBudget holds the same workers to txnAllocBudget.
//
// One worker keeps the measurement free of contention effects: aborts and
// waits are concurrency-control behaviour, not access-path cost. txnWarmup
// transactions run before the timer starts so one-time growth (arena
// doubling, slice capacities, zeta memoization) is excluded, exactly like
// the warm-up window of the simulated experiments.
//
// The workers are bound to their workloads (BindWorkload), so every
// completed transaction also records into the latency histogram and the
// per-transaction-type counters — the alloc budget is enforced with the
// full observability path live, proving it adds zero steady-state
// allocations.

const txnWarmup = 500

// txnAllocBudget is the most a completed transaction may allocate after
// warm-up. It is 3, not 0, only for MVCC's amortized pool refills and the
// growth of a hot part's version array on a tuple written many times
// between two watermark refreshes (it keeps what it grew to); every other
// scheme measures 0. TestContendedNativeAllocBudget holds the contended
// path to it too. fullMixAllocBudget is the full TPC-C mix's, per
// transaction over fullMixTxns: its inserts go through ordered indexes,
// and a B+tree that allocated per insert read 1.7 where fixed-capacity
// nodes read 0.02.
const (
	txnAllocBudget     = 3
	fullMixAllocBudget = 0.1
	fullMixTxns        = 2000
)

// txnSchemes returns one instance of each of the six concurrency-control
// implementations (2PL here represented by DL_DETECT; the three 2PL
// variants share the same access path and differ only on conflicts, which
// a single worker never hits).
func txnSchemes() []struct {
	name string
	mk   func() core.Scheme
} {
	return []struct {
		name string
		mk   func() core.Scheme
	}{
		{"DL_DETECT", func() core.Scheme { return twopl.New(twopl.DLDetect, twopl.Options{}) }},
		{"ADAPTIVE", func() core.Scheme { return twopl.NewAdaptive(twopl.Options{}) }},
		{"TIMESTAMP", func() core.Scheme { return to.New(tsalloc.Atomic) }},
		{"OCC", func() core.Scheme { return occ.New(tsalloc.Atomic) }},
		{"MVCC", func() core.Scheme { return mvcc.New(tsalloc.Atomic) }},
		{"HSTORE", func() core.Scheme { return hstore.New(tsalloc.Atomic) }},
	}
}

// driveTxns completes n transactions (commit or program-logic rollback;
// CC aborts retry, though a single worker never conflicts).
func driveTxns(b testing.TB, w *core.Worker, wl core.Workload, n int) {
	b.Helper()
	p := w.P
	for i := 0; i < n; i++ {
		for {
			err := w.ExecOnce(wl.Next(p))
			if err == nil || err == core.ErrUserAbort {
				break
			}
			if err != core.ErrAbort {
				b.Fatalf("unexpected transaction error: %v", err)
			}
		}
	}
}

// BenchmarkTxnYCSB measures one committed YCSB transaction (16 accesses,
// 50% updates, theta 0.6) per iteration, per scheme.
func BenchmarkTxnYCSB(b *testing.B) {
	for _, s := range txnSchemes() {
		s := s
		b.Run(s.name, func(b *testing.B) {
			w, wl := txnYCSBWorker(b, s.name, s.mk())
			b.ReportAllocs()
			b.ResetTimer()
			driveTxns(b, w, wl, b.N)
			b.StopTimer()
			if w.Tally.Latency.Count() == 0 {
				b.Fatal("latency histogram recorded nothing; observability path not exercised")
			}
		})
	}
}

// BenchmarkTxnTPCC measures one completed TPC-C transaction (50/50
// Payment/NewOrder, 1 warehouse) per iteration, per scheme. NewOrder
// inserts 7-17 rows per commit, so this also covers building rows in
// place and publishing them into indexes. Insert segments are sized from b.N (at most
// one ORDERS/NEW_ORDER/HISTORY slot per completed transaction; Build
// reserves 15x for ORDER_LINE), so any -benchtime works.
//
// The FULL_MIX row runs the specification's five-transaction mix, the only
// one whose inserts also go through ordered indexes (and whose Delivery,
// OrderStatus and StockLevel range-scan them). Its allocs/txn metric is the
// unrounded allocs/op: B+tree growth is a fraction of an allocation per
// transaction, which allocs/op floors to 0.
func BenchmarkTxnTPCC(b *testing.B) {
	for _, s := range txnSchemes() {
		s := s
		b.Run(s.name, func(b *testing.B) { benchTxnTPCC(b, s.mk(), tpcc.MixPaper) })
	}
	b.Run("FULL_MIX", func(b *testing.B) {
		benchTxnTPCC(b, twopl.New(twopl.DLDetect, twopl.Options{}), tpcc.MixFull)
	})
}

func benchTxnTPCC(b *testing.B, scheme core.Scheme, mix string) {
	w, wl := txnTPCCWorker(b, scheme, mix, b.N)
	b.ReportAllocs()
	_, mallocs := allocated(func() {
		b.ResetTimer()
		driveTxns(b, w, wl, b.N)
		b.StopTimer()
	})
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/txn")
	if w.Tally.Latency.Count() == 0 {
		b.Fatal("latency histogram recorded nothing; observability path not exercised")
	}
}

// txnYCSBWorker returns one native worker, warmed up, bound to a 16 384-row
// YCSB database under scheme.
func txnYCSBWorker(tb testing.TB, name string, scheme core.Scheme) (*core.Worker, core.Workload) {
	rt := native.New(1, 42)
	db := core.NewDB(rt)
	cfg := ycsb.DefaultConfig()
	cfg.Rows = 16384
	cfg.Partitioned = name == "HSTORE" // H-STORE needs declared partitions
	return txnWorker(tb, rt, db, scheme, ycsb.Build(db, cfg))
}

// txnTPCCWorker returns one native worker, warmed up, bound to a
// one-warehouse TPC-C database under scheme with room for n more inserts.
func txnTPCCWorker(tb testing.TB, scheme core.Scheme, mix string, n int) (*core.Worker, core.Workload) {
	rt := native.New(1, 42)
	db := core.NewDB(rt)
	cfg := tpcc.DefaultConfig(1)
	cfg.Mix = mix
	cfg.InsertsPerWorker = txnWarmup + n + 64
	return txnWorker(tb, rt, db, scheme, tpcc.Build(db, cfg))
}

// txnWorker sets scheme up on db and returns worker 0, bound to wl, after
// txnWarmup transactions.
func txnWorker(tb testing.TB, rt *native.Runtime, db *core.DB, scheme core.Scheme, wl core.Workload) (*core.Worker, core.Workload) {
	scheme.Setup(db)
	w := core.NewWorker(rt.Proc(0), db, scheme)
	w.BindWorkload(wl)
	driveTxns(tb, w, wl, txnWarmup)
	return w, wl
}

// TestTxnAllocBudget: after warm-up, a completed YCSB or TPC-C transaction
// allocates at most txnAllocBudget times under every scheme (allocs/op as
// -benchmem floors it, over txnAllocRuns transactions), and the full TPC-C
// mix at most fullMixAllocBudget times per transaction.
func TestTxnAllocBudget(t *testing.T) {
	const txnAllocRuns = 100
	check := func(what string, n int, most float64, round func(float64) float64, w *core.Worker, wl core.Workload) {
		_, mallocs := allocated(func() { driveTxns(t, w, wl, n) })
		a := float64(mallocs) / float64(n)
		if round(a) > most {
			t.Errorf("%s: %.3f allocs/txn over %d transactions, budget %g", what, a, n, most)
		}
		t.Logf("%-16s %6.3f allocs/txn over %d transactions", what, a, n)
	}
	for _, s := range txnSchemes() {
		w, wl := txnYCSBWorker(t, s.name, s.mk())
		check("YCSB "+s.name, txnAllocRuns, txnAllocBudget, math.Floor, w, wl)
		w, wl = txnTPCCWorker(t, s.mk(), tpcc.MixPaper, txnAllocRuns)
		check("TPC-C "+s.name, txnAllocRuns, txnAllocBudget, math.Floor, w, wl)
	}
	w, wl := txnTPCCWorker(t, twopl.New(twopl.DLDetect, twopl.Options{}), tpcc.MixFull, fullMixTxns)
	check("full TPC-C mix", fullMixTxns, fullMixAllocBudget, func(a float64) float64 { return a }, w, wl)
}

package abyss1000_test

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/workload/tpcc"
)

// cyclesByType wraps a workload and bills each transaction the cycles its
// worker's breakdown gained, per component, from the transaction's Next
// call to the following one: the whole transaction, retries, commit and
// insert publication included. A CC-aborted attempt's USEFUL, INDEX and
// MANAGER cycles move to ABORT, so what stays there is the work of
// attempts that completed. The limit'th Next call interrupts the run.
type cyclesByType struct {
	inner abyss.Workload
	typer abyss.TxnTyper

	limit, n  int
	interrupt func()

	last   [stats.NumComponents]uint64 // the breakdown at the latest Next call
	typ    int                         // type of the transaction that call returned
	cycles [][stats.NumComponents]uint64
}

func (o *cyclesByType) Next(p abyss.Proc) abyss.Txn {
	o.bill(p.Stats())
	o.n++
	if o.n == o.limit {
		o.interrupt()
	}
	t := o.inner.Next(p)
	o.typ = o.typer.TxnTypeOf(t)
	return t
}

// bill adds what b gained since the latest Next call to the current type.
func (o *cyclesByType) bill(b *stats.Breakdown) {
	for c := range o.last {
		now := b.Get(stats.Component(c))
		if o.n > 0 {
			o.cycles[o.typ][c] += now - o.last[c]
		}
		o.last[c] = now
	}
}

func (o *cyclesByType) TxnTypes() []string        { return o.typer.TxnTypes() }
func (o *cyclesByType) TxnTypeOf(t abyss.Txn) int { return o.typer.TxnTypeOf(t) }

// fullMixCycles runs txns transactions of the full TPC-C mix on one native
// worker under NO_WAIT at seed 42, as the native-tpcc benchmark runs it,
// and returns each type's name, cycles per component and completed count.
// One worker draws the same transactions every time and nothing conflicts,
// so the numbers are exact.
func fullMixCycles(t *testing.T, txns int) ([]string, [][stats.NumComponents]uint64, []uint64) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	p.Mix, p.Warehouses, p.InsertsPerWorker = "full", 1, txns*55/100+64
	wl, err := db.BuildWorkload("tpcc", p)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	typer := wl.(abyss.TxnTyper)
	obs := &cyclesByType{inner: wl, typer: typer, limit: txns, interrupt: db.Interrupt,
		cycles: make([][stats.NumComponents]uint64, len(typer.TxnTypes()))}
	res, err := db.Run(scheme, obs, abyss.RunConfig{MeasureCycles: uint64(time.Hour), AbortBackoff: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Interrupted() {
		t.Fatalf("the run ended before %d transactions", txns)
	}
	obs.bill(&res.Breakdown) // the run's last transaction, which no Next call follows
	commits := make([]uint64, len(res.PerTxn))
	for i := range res.PerTxn {
		commits[i] = res.PerTxn[i].Commits
	}
	return typer.TxnTypes(), obs.cycles, commits
}

// TestFullMixIndexCycles pins the INDEX cycles the cost model bills per
// completed NewOrder and per completed Delivery of the full TPC-C mix, on
// one native worker under NO_WAIT at seed 42, as the native-tpcc benchmark
// runs it. One worker draws the same transactions every time and nothing
// conflicts, so the numbers are exact. Under the full mix NEW_ORDER and
// ORDER_LINE are indexed once, by their B+trees: a NewOrder publishes one
// entry per row it inserts into them, and a Delivery reads an order's lines
// with one range scan.
func TestFullMixIndexCycles(t *testing.T) {
	const txns = 20_000
	// INDEX cycles billed to each type's completed transactions, and how
	// many completed.
	want := map[string][2]uint64{
		"NewOrder": {14_562_755, 8_948},
		"Delivery": {1_842_368, 794},
	}

	cat := core.NewDB(native.New(1, 42))
	cfg := tpcc.DefaultConfig(1)
	cfg.Mix = tpcc.MixFull
	tpcc.Build(cat, cfg)
	for _, table := range []string{"NEW_ORDER", "ORDER_LINE"} {
		var names []string
		var ordered bool
		for _, name := range cat.IndexNames() {
			if x := cat.Index(name); x.Table().Schema.Name == table {
				names = append(names, name)
				_, ordered = x.(*index.Ordered)
			}
		}
		if len(names) != 1 || !ordered {
			t.Errorf("full mix indexes %s by %v, want one ordered index", table, names)
		}
	}

	names, cycles, commits := fullMixCycles(t, txns)
	for i, name := range names {
		got := [2]uint64{cycles[i][stats.Index], commits[i]}
		t.Logf("%-11s %6d completed  %9d INDEX cycles, %7.1f each", name, got[1], got[0], float64(got[0])/float64(got[1]))
		if w, ok := want[name]; ok && got != w {
			t.Errorf("%s: %d INDEX cycles over %d completed (%.1f each), want %d over %d (%.1f each)",
				name, got[0], got[1], float64(got[0])/float64(got[1]), w[0], w[1], float64(w[0])/float64(w[1]))
		}
	}
}

// TestFullMixUsefulCycles pins what the cost model bills the full mix's
// inserts and StockLevel, in the run TestFullMixIndexCycles makes: the
// USEFUL cycles per completed NewOrder (7 to 17 rows inserted) and per
// completed Payment (one HISTORY row), and StockLevel's cycles in each of
// the four components a conflict-free run bills. A row inserted is built
// in place in its table slot, billed one row write; StockLevel reads the
// lines of the district's last 20 orders.
func TestFullMixUsefulCycles(t *testing.T) {
	const txns = 20_000
	// USEFUL cycles billed to each type's completed transactions, and how
	// many completed.
	want := map[string][2]uint64{
		"NewOrder": {23_696_702, 8_948},
		"Payment":  {3_334_392, 8_616},
	}
	// StockLevel's USEFUL, ABORT, INDEX and MANAGER cycles.
	wantStockLevel := [4]uint64{20_329_844, 0, 6_131_515, 11_928_100}

	names, cycles, commits := fullMixCycles(t, txns)
	for i, name := range names {
		c := &cycles[i]
		four := [4]uint64{c[stats.Useful], c[stats.Abort], c[stats.Index], c[stats.Manager]}
		total := four[0] + four[1] + four[2] + four[3]
		t.Logf("%-11s %6d completed  USEFUL %9d (%7.1f each)  USEFUL+ABORT+INDEX+MANAGER %v = %9d (%8.1f each)",
			name, commits[i], four[0], float64(four[0])/float64(commits[i]), four, total, float64(total)/float64(commits[i]))
		if w, ok := want[name]; ok && (four[0] != w[0] || commits[i] != w[1]) {
			t.Errorf("%s: %d USEFUL cycles over %d completed (%.1f each), want %d over %d (%.1f each)",
				name, four[0], commits[i], float64(four[0])/float64(commits[i]), w[0], w[1], float64(w[0])/float64(w[1]))
		}
		if name == "StockLevel" && four != wantStockLevel {
			t.Errorf("StockLevel: USEFUL, ABORT, INDEX and MANAGER cycles %v, want %v", four, wantStockLevel)
		}
		for _, comp := range []stats.Component{stats.TsAlloc, stats.Wait} {
			if c[comp] != 0 {
				t.Errorf("%s: %d %s cycles in a conflict-free run without timestamps", name, c[comp], comp)
			}
		}
	}
}

// TestFullMixDrawPerWorker pins the sequence of transaction types the full
// TPC-C mix draws on each of 4 simulated workers at seed 42: a digest of
// the names of each worker's first fullMixDraws types. The draws are made
// on the simulator's procs outside a run, so they are the Mix's alone: a
// change to the weights, their order, the draw or a Generate's use of the
// stream moves the digests, and a change to the timing model cannot (a
// NO_WAIT abort's randomized backoff draws from the same stream in a run).
func TestFullMixDrawPerWorker(t *testing.T) {
	const fullMixDraws = 1000
	want := []string{"08e9a0e3bfb292db", "6ed3a39d84862149", "5c8d4172a79e1557", "7852c808f60c1d7f"}

	eng := sim.New(len(want), 42)
	cfg := tpcc.DefaultConfig(len(want))
	cfg.Mix = tpcc.MixFull
	wl := tpcc.Build(core.NewDB(eng), cfg)
	names := wl.TxnTypes()
	for w := range want {
		p := eng.Proc(w)
		h := sha256.New()
		for range fullMixDraws {
			h.Write([]byte(names[wl.TxnTypeOf(wl.Next(p))]))
			h.Write([]byte{0})
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[w] {
			t.Errorf("worker %d drew %s, want %s", w, got, want[w])
		}
	}
}

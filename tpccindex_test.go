package abyss1000_test

import (
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/stats"
	"abyss1000/internal/workload/tpcc"
)

// indexByType wraps a workload and bills each transaction the INDEX cycles
// its worker's breakdown gained from the transaction's Next call to the
// following one: the whole transaction, retries, commit and insert
// publication included. A CC-aborted attempt's INDEX cycles move to ABORT,
// so what stays is the work of attempts that completed. The limit'th Next
// call interrupts the run.
type indexByType struct {
	inner abyss.Workload
	typer abyss.TxnTyper

	limit, n  int
	interrupt func()

	last   uint64 // INDEX cycles at the latest Next call
	typ    int    // type of the transaction that call returned
	cycles []uint64
}

func (o *indexByType) Next(p abyss.Proc) abyss.Txn {
	idx := p.Stats().Get(stats.Index)
	if o.n > 0 {
		o.cycles[o.typ] += idx - o.last
	}
	o.last = idx
	o.n++
	if o.n == o.limit {
		o.interrupt()
	}
	t := o.inner.Next(p)
	o.typ = o.typer.TxnTypeOf(t)
	return t
}

func (o *indexByType) TxnTypes() []string        { return o.typer.TxnTypes() }
func (o *indexByType) TxnTypeOf(t abyss.Txn) int { return o.typer.TxnTypeOf(t) }

// close bills the run's last transaction, which no Next call follows.
func (o *indexByType) close(res *abyss.Result) {
	o.cycles[o.typ] += res.Breakdown.Get(stats.Index) - o.last
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
	obs := &indexByType{inner: wl, typer: typer, limit: txns, interrupt: db.Interrupt,
		cycles: make([]uint64, len(typer.TxnTypes()))}
	res, err := db.Run(scheme, obs, abyss.RunConfig{MeasureCycles: uint64(time.Hour), AbortBackoff: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Interrupted() {
		t.Fatalf("the run ended before %d transactions", txns)
	}
	obs.close(&res)

	for i, name := range typer.TxnTypes() {
		got := [2]uint64{obs.cycles[i], res.PerTxn[i].Commits}
		t.Logf("%-11s %6d completed  %9d INDEX cycles, %7.1f each", name, got[1], got[0], float64(got[0])/float64(got[1]))
		if w, ok := want[name]; ok && got != w {
			t.Errorf("%s: %d INDEX cycles over %d completed (%.1f each), want %d over %d (%.1f each)",
				name, got[0], got[1], float64(got[0])/float64(got[1]), w[0], w[1], float64(w[0])/float64(w[1]))
		}
	}
}

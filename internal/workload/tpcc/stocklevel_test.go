package tpcc

import (
	"testing"

	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
)

// TestStockLevelScansLastTwentyOrders pins StockLevel's window to the
// spec's (§2.8.2.2: D_NEXT_O_ID−20 ≤ OL_O_ID < D_NEXT_O_ID): after each
// NewOrder into one district, a StockLevel there reads exactly the lines
// of the last min(20, D_NEXT_O_ID−1) orders. It counts its reads: the
// DISTRICT row, each line in the window and one STOCK row per distinct
// item among them.
func TestStockLevelScansLastTwentyOrders(t *testing.T) {
	eng := sim.New(1, 5)
	db := core.NewDB(eng)
	cfg := DefaultConfig(1)
	cfg.Mix = MixFull
	cfg.CustomersPerDistrict = 50
	cfg.Items = 100
	cfg.InsertsPerWorker = 256
	w := Build(db, cfg)
	scheme := twopl.New(twopl.NoWait, twopl.Options{})
	scheme.Setup(db)
	const did = 3

	// want returns the reads a StockLevel of district did should make.
	want := func() uint64 {
		ol := w.orderline
		sc := ol.Schema
		dslot, _ := w.idxDistrict.LoadLookup(districtKey(1, did))
		nextOID := w.district.Schema.GetU64(w.district.Row(dslot), DNextOID)
		lo := nextOID - min(20, nextOID-1) // the last min(20, D_NEXT_O_ID-1) orders
		lines, items := uint64(0), map[uint64]bool{}
		start, next := ol.SegRange(0)
		for s := start; s < next; s++ {
			row := ol.Row(s)
			if oid := sc.GetU64(row, OLOID); sc.GetU64(row, OLDID) == did && oid >= lo && oid < nextOID {
				lines++
				items[sc.GetU64(row, OLIID)] = true
			}
		}
		return 1 + lines + uint64(len(items))
	}

	eng.Run(func(p rt.Proc) {
		wk := core.NewWorker(p, db, scheme)
		no, sl := &newOrderTxn{wl: w, items: make([]olInput, 0, 15)}, &stockLevelTxn{wl: w}
		for orders := 0; orders < 30; {
			no.Generate(p)
			no.did = did
			if err := wk.ExecOnce(no); err == nil {
				orders++
			}
			sl.Generate(p)
			sl.did = did
			before := wk.Tally.Tuples
			if err := wk.ExecOnce(sl); err != nil {
				t.Errorf("StockLevel: %v", err)
				return
			}
			if got, exp := wk.Tally.Tuples-before, want(); got != exp {
				t.Errorf("after %d orders StockLevel made %d reads, want %d", orders, got, exp)
				return
			}
		}
	})
}

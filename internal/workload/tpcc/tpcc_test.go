package tpcc_test

import (
	"testing"

	"abyss1000/internal/cc/hstore"
	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cc/occ"
	"abyss1000/internal/cc/to"
	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/sim"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/tpcc"
)

func testConfig(warehouses int) tpcc.Config {
	cfg := tpcc.DefaultConfig(warehouses)
	cfg.CustomersPerDistrict = 50
	cfg.Items = 100
	cfg.InsertsPerWorker = 2048
	return cfg
}

func schemeMakers() map[string]func() core.Scheme {
	return map[string]func() core.Scheme{
		"DL_DETECT": func() core.Scheme { return twopl.New(twopl.DLDetect, twopl.Options{}) },
		"NO_WAIT":   func() core.Scheme { return twopl.New(twopl.NoWait, twopl.Options{}) },
		"WAIT_DIE":  func() core.Scheme { return twopl.New(twopl.WaitDie, twopl.Options{}) },
		"TIMESTAMP": func() core.Scheme { return to.New(tsalloc.Atomic) },
		"MVCC":      func() core.Scheme { return mvcc.New(tsalloc.Atomic) },
		"OCC":       func() core.Scheme { return occ.New(tsalloc.Atomic) },
		"HSTORE":    func() core.Scheme { return hstore.New(tsalloc.Atomic) },
	}
}

func TestTPCCSmokeAllSchemes(t *testing.T) {
	for name, mk := range schemeMakers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			eng := sim.New(8, 11)
			db := core.NewDB(eng)
			wl := tpcc.Build(db, testConfig(4))
			ccfg := core.Config{WarmupCycles: 100_000, MeasureCycles: 500_000, AbortBackoff: 1000}
			res := core.Run(db, mk(), wl, ccfg)
			if res.Commits == 0 {
				t.Fatalf("%s committed no TPC-C transactions: %+v", name, res)
			}
			t.Logf("%s", res.String())
		})
	}
}

// TestTPCCMoneyConservation checks Payment bookkeeping under serializable
// execution: every committed Payment adds `amount` to one warehouse's
// W_YTD, one district's D_YTD and one customer's C_YTD_PAYMENT, so the
// three deltas must agree exactly at quiescence. Run on every scheme whose
// final state lives in the table slab (MVCC keeps it in version chains and
// is covered by the history checker instead).
func TestTPCCMoneyConservation(t *testing.T) {
	for _, name := range []string{"DL_DETECT", "NO_WAIT", "WAIT_DIE", "TIMESTAMP", "OCC", "HSTORE"} {
		name := name
		t.Run(name, func(t *testing.T) {
			eng := sim.New(8, 13)
			db := core.NewDB(eng)
			cfg := testConfig(4)
			cfg.PaymentPct = 1.0 // Payment only
			wl := tpcc.Build(db, cfg)
			res := core.Run(db, schemeMakers()[name](), wl,
				core.Config{WarmupCycles: 0, MeasureCycles: 600_000, AbortBackoff: 500})
			if res.Commits == 0 {
				t.Fatal("no commits")
			}

			wh := db.Catalog.Table("WAREHOUSE")
			var wDelta int64
			for i := 0; i < wh.Loaded(); i++ {
				wDelta += wh.Schema.GetI64(wh.Row(i), tpcc.WYTD) - 30000000
			}
			dist := db.Catalog.Table("DISTRICT")
			var dDelta int64
			for i := 0; i < dist.Loaded(); i++ {
				dDelta += dist.Schema.GetI64(dist.Row(i), tpcc.DYTD) - 3000000
			}
			cust := db.Catalog.Table("CUSTOMER")
			var cDelta, bDelta int64
			for i := 0; i < cust.Loaded(); i++ {
				cDelta += cust.Schema.GetI64(cust.Row(i), tpcc.CYTDPayment) - 1000
				bDelta += cust.Schema.GetI64(cust.Row(i), tpcc.CBalance) - (-1000)
			}
			if wDelta != dDelta || wDelta != cDelta || bDelta != -cDelta {
				t.Fatalf("%s money leak: warehouse %d, district %d, customer ytd %d, balance %d",
					name, wDelta, dDelta, cDelta, bDelta)
			}
			if wDelta == 0 {
				t.Fatal("no money moved despite commits")
			}
		})
	}
}

// TestTPCCNewOrderConsistency checks the D_NEXT_O_ID / ORDERS / ORDER_LINE
// relationship after a NewOrder-only run: for each district, committed
// order ids must be exactly 1..(D_NEXT_O_ID-1) minus user-aborted ones,
// and every committed order has its NEW_ORDER row and OL_CNT order lines.
func TestTPCCNewOrderConsistency(t *testing.T) {
	eng := sim.New(4, 17)
	db := core.NewDB(eng)
	cfg := testConfig(2)
	cfg.PaymentPct = 0 // NewOrder only
	wl := tpcc.Build(db, cfg)
	res := core.Run(db, twopl.New(twopl.NoWait, twopl.Options{}), wl,
		core.Config{WarmupCycles: 0, MeasureCycles: 600_000, AbortBackoff: 500})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}

	orders := db.Catalog.Table("ORDERS")
	ol := db.Catalog.Table("ORDER_LINE")
	no := db.Catalog.Table("NEW_ORDER")

	type dk struct{ w, d uint64 }
	orderCount := map[dk]uint64{}
	olCount := map[dk]uint64{}
	noCount := map[dk]uint64{}
	var wantOL uint64

	// Inserted rows live in per-worker segments; scan the whole slab and
	// skip empty slots (O_W_ID == 0 marks never-written rows since
	// warehouse ids are 1-based).
	for i := orders.Loaded(); i < orders.Capacity(); i++ {
		row := orders.Row(i)
		w := orders.Schema.GetU64(row, tpcc.OWID)
		if w == 0 {
			continue
		}
		k := dk{w, orders.Schema.GetU64(row, tpcc.ODID)}
		orderCount[k]++
		wantOL += orders.Schema.GetU64(row, tpcc.OOLCnt)
	}
	for i := no.Loaded(); i < no.Capacity(); i++ {
		row := no.Row(i)
		w := no.Schema.GetU64(row, tpcc.NOWID)
		if w == 0 {
			continue
		}
		noCount[dk{w, no.Schema.GetU64(row, tpcc.NODID)}]++
	}
	var gotOL uint64
	for i := ol.Loaded(); i < ol.Capacity(); i++ {
		row := ol.Row(i)
		w := ol.Schema.GetU64(row, tpcc.OLWID)
		if w == 0 {
			continue
		}
		olCount[dk{w, ol.Schema.GetU64(row, tpcc.OLDID)}]++
		gotOL++
	}

	for k, n := range orderCount {
		if noCount[k] != n {
			t.Fatalf("district %v: %d orders but %d NEW_ORDER rows", k, n, noCount[k])
		}
	}
	if gotOL != wantOL {
		t.Fatalf("order lines: got %d, want %d (sum of O_OL_CNT)", gotOL, wantOL)
	}
	_ = olCount
}

// TestTPCCFullMixAllSchemes runs the five-transaction spec mix on every
// paper scheme: every transaction type must commit, including the three
// range-scanning additions.
func TestTPCCFullMixAllSchemes(t *testing.T) {
	for name, mk := range schemeMakers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			eng := sim.New(8, 19)
			db := core.NewDB(eng)
			cfg := testConfig(4)
			cfg.Mix = tpcc.MixFull
			wl := tpcc.Build(db, cfg)
			res := core.Run(db, mk(), wl, core.Config{WarmupCycles: 100_000, MeasureCycles: 3_000_000, AbortBackoff: 1000})
			if res.Commits == 0 {
				t.Fatalf("%s committed no transactions", name)
			}
			if len(res.PerTxn) != 5 {
				t.Fatalf("full mix reports %d txn types, want 5", len(res.PerTxn))
			}
			for _, pt := range res.PerTxn {
				if pt.Commits == 0 {
					t.Errorf("%s: %s never committed", name, pt.Name)
				}
			}
			t.Logf("%s", res.String())
		})
	}
}

// TestTPCCFullMixDeliveryConsistency checks the delivery-cursor protocol
// after a serializable full-mix run: per district the cursor never passes
// D_NEXT_O_ID; orders at most the cursor carry a carrier id and stamped
// delivery dates on every line; orders above it carry neither; and the
// district cursors, customer delivery counts and stamped orders all agree.
func TestTPCCFullMixDeliveryConsistency(t *testing.T) {
	eng := sim.New(8, 23)
	db := core.NewDB(eng)
	cfg := testConfig(2)
	cfg.Mix = tpcc.MixFull
	wl := tpcc.Build(db, cfg)
	res := core.Run(db, twopl.New(twopl.NoWait, twopl.Options{}), wl,
		core.Config{WarmupCycles: 0, MeasureCycles: 6_000_000, AbortBackoff: 500})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	var delivered uint64
	for _, pt := range res.PerTxn {
		if pt.Name == "Delivery" && pt.Commits == 0 {
			t.Fatal("no Delivery transactions committed; consistency check is vacuous")
		}
	}

	dist := db.Catalog.Table("DISTRICT")
	type dk struct{ w, d uint64 }
	cursor := map[dk]uint64{}
	var cursorSum uint64
	for i := 0; i < dist.Loaded(); i++ {
		row := dist.Row(i)
		k := dk{dist.Schema.GetU64(row, tpcc.DWID), dist.Schema.GetU64(row, tpcc.DID)}
		c := dist.Schema.GetU64(row, tpcc.DDelivOID)
		next := dist.Schema.GetU64(row, tpcc.DNextOID)
		if c >= next {
			t.Fatalf("district %v: delivery cursor %d passed D_NEXT_O_ID %d", k, c, next)
		}
		cursor[k] = c
		cursorSum += c
	}
	if cursorSum == 0 {
		t.Fatal("no district ever delivered despite Delivery commits")
	}

	orders := db.Catalog.Table("ORDERS")
	for i := orders.Loaded(); i < orders.Capacity(); i++ {
		row := orders.Row(i)
		w := orders.Schema.GetU64(row, tpcc.OWID)
		if w == 0 {
			continue
		}
		k := dk{w, orders.Schema.GetU64(row, tpcc.ODID)}
		oid := orders.Schema.GetU64(row, tpcc.OID)
		carrier := orders.Schema.GetU64(row, tpcc.OCarrierID)
		if oid <= cursor[k] {
			if carrier == 0 {
				t.Fatalf("order %v/%d at or below cursor %d has no carrier", k, oid, cursor[k])
			}
			delivered++
		} else if carrier != 0 {
			t.Fatalf("order %v/%d above cursor %d already has carrier %d", k, oid, cursor[k], carrier)
		}
	}
	if delivered != cursorSum {
		t.Fatalf("cursors promise %d delivered orders, ORDERS shows %d", cursorSum, delivered)
	}

	ol := db.Catalog.Table("ORDER_LINE")
	for i := ol.Loaded(); i < ol.Capacity(); i++ {
		row := ol.Row(i)
		w := ol.Schema.GetU64(row, tpcc.OLWID)
		if w == 0 {
			continue
		}
		k := dk{w, ol.Schema.GetU64(row, tpcc.OLDID)}
		oid := ol.Schema.GetU64(row, tpcc.OLOID)
		stamped := ol.Schema.GetU64(row, tpcc.OLDeliveryD) != 0
		if oid <= cursor[k] && !stamped {
			t.Fatalf("line %v/%d below cursor %d not stamped", k, oid, cursor[k])
		}
		if oid > cursor[k] && stamped {
			t.Fatalf("line %v/%d above cursor %d stamped", k, oid, cursor[k])
		}
	}

	cust := db.Catalog.Table("CUSTOMER")
	var delivCnt uint64
	for i := 0; i < cust.Loaded(); i++ {
		delivCnt += cust.Schema.GetU64(cust.Row(i), tpcc.CDeliveryCnt)
	}
	if delivCnt != cursorSum {
		t.Fatalf("customers record %d deliveries, cursors promise %d", delivCnt, cursorSum)
	}

	// Every committed order's NEW_ORDER ordered entry was published.
	ord := db.Index("NEW_ORDER_ORD").(*index.Ordered)
	var committedOrders int
	for i := orders.Loaded(); i < orders.Capacity(); i++ {
		if orders.Schema.GetU64(orders.Row(i), tpcc.OWID) != 0 {
			committedOrders++
		}
	}
	if ord.Len() != committedOrders {
		t.Fatalf("NEW_ORDER ordered index has %d entries, ORDERS has %d committed rows", ord.Len(), committedOrders)
	}
}

// TestTPCCUnknownMixPanics pins the Build-time validation.
func TestTPCCUnknownMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown mix")
		}
	}()
	eng := sim.New(2, 1)
	cfg := testConfig(1)
	cfg.Mix = "bogus"
	tpcc.Build(core.NewDB(eng), cfg)
}

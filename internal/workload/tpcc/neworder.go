package tpcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
)

// olInput is one order line's input.
type olInput struct {
	iid    uint64
	supply uint64 // supplying warehouse (1% remote per line)
	qty    int64
}

// newOrderTxn is the TPC-C NewOrder transaction: enter an order of 5-15
// lines, reading ITEM, updating DISTRICT (D_NEXT_O_ID) and STOCK, and
// inserting ORDERS, NEW_ORDER and ORDER_LINE rows. Query outputs feed
// subsequent queries (D_NEXT_O_ID becomes the order id; I_PRICE and
// D_TAX/W_TAX feed OL_AMOUNT), the read-modify-write pattern the paper
// contrasts with YCSB. 1% of NewOrders roll back on an unused item id
// (spec §2.4.1.4), exercising program-logic aborts.
type newOrderTxn struct {
	wl *Workload

	wid, did  uint64
	cid       uint64
	items     []olInput
	userAbort bool
	allLocal  bool
	parts     []int
}

// Generate draws the inputs (spec §2.4.1, scaled).
func (t *newOrderTxn) Generate(p rt.Proc) {
	cfg := &t.wl.cfg
	rng := p.Rand()
	t.wid = t.wl.homeWarehouse(p)
	t.did = uint64(rng.Intn(cfg.DistrictsPerWarehouse)) + 1
	t.cid = uint64(rng.Intn(cfg.CustomersPerDistrict)) + 1
	olCnt := rng.Intn(11) + 5 // 5-15
	t.items = t.items[:0]
	t.allLocal = true
	t.userAbort = rng.Float64() < cfg.UserAbortPct

	t.parts = append(t.parts[:0], t.wl.partitionOf(t.wid))
	for i := 0; i < olCnt; i++ {
		var in olInput
		// Distinct item ids within the order keep lock acquisition
		// free of intra-transaction upgrades, as the spec's NURand
		// practically ensures.
		for {
			in.iid = uint64(rng.Intn(cfg.Items)) + 1
			dup := false
			for j := range t.items {
				if t.items[j].iid == in.iid {
					dup = true
					break
				}
			}
			if !dup {
				break
			}
		}
		in.supply = t.wid
		if cfg.Warehouses > 1 && rng.Float64() < cfg.RemoteItemPct {
			for {
				in.supply = uint64(rng.Intn(cfg.Warehouses)) + 1
				if in.supply != t.wid {
					break
				}
			}
			t.allLocal = false
			t.parts = append(t.parts, t.wl.partitionOf(in.supply))
		}
		in.qty = int64(rng.Intn(10)) + 1
		t.items = append(t.items, in)
	}
}

// Run implements core.Txn.
func (t *newOrderTxn) Run(tx *core.TxnCtx) error {
	w := t.wl

	// Warehouse tax (read-only; every NewOrder reads its warehouse row,
	// colliding with Payment's W_YTD update — the Fig. 16 interaction).
	wslot, ok := tx.Lookup(w.idxWarehouse, warehouseKey(t.wid))
	if !ok {
		panic("tpcc: warehouse missing")
	}
	wrow, err := tx.Read(w.warehouse, wslot, WTax)
	if err != nil {
		return err
	}
	wtax := w.warehouse.Schema.GetI64(wrow, WTax)

	// District: read D_TAX, consume D_NEXT_O_ID.
	dslot, ok := tx.Lookup(w.idxDistrict, districtKey(t.wid, t.did))
	if !ok {
		panic("tpcc: district missing")
	}
	dsc := w.district.Schema
	drow, err := tx.UpdateRow(w.district, dslot, DTax, DNextOID)
	if err != nil {
		return err
	}
	dtax := dsc.GetI64(drow, DTax)
	oid := dsc.GetU64(drow, DNextOID)
	dsc.PutU64(drow, DNextOID, oid+1)

	// Customer discount.
	cslot, ok := tx.Lookup(w.idxCustomer, customerKey(t.wid, t.did, t.cid))
	if !ok {
		panic("tpcc: customer missing")
	}
	crow, err := tx.Read(w.customer, cslot, CDiscount)
	if err != nil {
		return err
	}
	cdiscount := w.customer.Schema.GetI64(crow, CDiscount)

	// Order lines: read ITEM, update STOCK, stage ORDER_LINE inserts.
	var total int64
	isc := w.item.Schema
	ssc := w.stock.Schema
	olsc := w.orderline.Schema
	for i := range t.items {
		in := &t.items[i]
		if t.userAbort && i == len(t.items)-1 {
			// Spec: the last item id is invalid ("unused"), the
			// lookup fails, and the whole order rolls back.
			return core.ErrUserAbort
		}
		islot, ok := tx.Lookup(w.idxItem, itemKey(in.iid))
		if !ok {
			panic("tpcc: item missing")
		}
		irow, err := tx.Read(w.item, islot, IPrice)
		if err != nil {
			return err
		}
		price := isc.GetI64(irow, IPrice)

		sslot, ok := tx.Lookup(w.idxStock, stockKey(in.supply, in.iid))
		if !ok {
			panic("tpcc: stock missing")
		}
		remote := in.supply != t.wid
		qty := in.qty
		srow, err := tx.UpdateRow(w.stock, sslot, SQuantity, SYTD, SOrderCnt, SRemoteCnt)
		if err != nil {
			return err
		}
		q := ssc.GetI64(srow, SQuantity)
		if q >= qty+10 {
			q -= qty
		} else {
			q = q - qty + 91
		}
		ssc.PutI64(srow, SQuantity, q)
		ssc.PutI64(srow, SYTD, ssc.GetI64(srow, SYTD)+qty)
		ssc.PutU64(srow, SOrderCnt, ssc.GetU64(srow, SOrderCnt)+1)
		if remote {
			ssc.PutU64(srow, SRemoteCnt, ssc.GetU64(srow, SRemoteCnt)+1)
		}

		amount := qty * price
		total += amount
		olNum := uint64(i) + 1
		olKey := orderLineKey(t.wid, t.did, oid, olNum)
		olrow := tx.InsertRow(w.idxOrderLine, olKey)
		olsc.PutU64(olrow, OLOID, oid)
		olsc.PutU64(olrow, OLDID, t.did)
		olsc.PutU64(olrow, OLWID, t.wid)
		olsc.PutU64(olrow, OLNumber, olNum)
		olsc.PutU64(olrow, OLIID, in.iid)
		olsc.PutU64(olrow, OLSupplyWID, in.supply)
		olsc.PutI64(olrow, OLQuantity, qty)
		olsc.PutI64(olrow, OLAmount, amount)
	}

	// total with taxes and discount (output only; keeps the arithmetic
	// the spec performs).
	total = total * (10000 - cdiscount) / 10000
	total = total * (10000 + wtax + dtax) / 10000
	_ = total

	osc := w.orders.Schema
	allLocal := uint64(1)
	if !t.allLocal {
		allLocal = 0
	}
	nItems := uint64(len(t.items))
	oKey := orderKey(t.wid, t.did, oid)
	orow := tx.InsertRowOrdered(w.idxOrders, oKey, w.ordCustOrders, custOrderKey(t.wid, t.did, t.cid, oid))
	osc.PutU64(orow, OID, oid)
	osc.PutU64(orow, OCID, t.cid)
	osc.PutU64(orow, ODID, t.did)
	osc.PutU64(orow, OWID, t.wid)
	osc.PutU64(orow, OEntryD, tx.P.Now())
	osc.PutU64(orow, OOLCnt, nItems)
	osc.PutU64(orow, OAllLocal, allLocal)
	nosc := w.neworder.Schema
	// NEW_ORDER is inserted last: its ordered entry is the one Delivery
	// probes for, and the commit point publishes entries in insert order
	// — so when a scan finds an order's NEW_ORDER entry, the order's
	// ORDERS and ORDER_LINE entries are already published.
	norow := tx.InsertRow(w.idxNewOrder, oKey)
	nosc.PutU64(norow, NOOID, oid)
	nosc.PutU64(norow, NODID, t.did)
	nosc.PutU64(norow, NOWID, t.wid)
	return nil
}

// Partitions implements core.Txn.
func (t *newOrderTxn) Partitions() []int { return t.parts }

// MayRollBack implements core.RollbackDeclarer: the unused item id is in
// the terminal's input (spec §2.4.1.4), so Generate knows it.
func (t *newOrderTxn) MayRollBack() bool { return t.userAbort }

var _ core.Txn = (*newOrderTxn)(nil)

package tpcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
)

// orderStatusTxn is the TPC-C OrderStatus transaction (full mix only): a
// read-only query returning a customer's most recent order and its
// lines. The "most recent order" lookup is a range scan over the
// ORDERS_CUST ordered index — the access path the spec's secondary-key
// SELECT MAX(O_ID) implies — whose last entry is the newest order.
type orderStatusTxn struct {
	wl *Workload

	wid, did, cid uint64
	parts         []int
}

// Generate draws the inputs (spec §2.6.1; customers are drawn by id —
// the spec's 60% by-last-name path needs the name index the engine
// doesn't model).
func (t *orderStatusTxn) Generate(p rt.Proc) {
	cfg := &t.wl.cfg
	rng := p.Rand()
	t.wid = t.wl.homeWarehouse(p)
	t.did = uint64(rng.Intn(cfg.DistrictsPerWarehouse)) + 1
	t.cid = uint64(rng.Intn(cfg.CustomersPerDistrict)) + 1
	t.parts = append(t.parts[:0], t.wl.partitionOf(t.wid))
}

// Run implements core.Txn.
func (t *orderStatusTxn) Run(tx *core.TxnCtx) error {
	w := t.wl

	// Customer balance (spec returns name/balance with the order; the
	// names are part of C_PAD, which this port does not read).
	cslot, ok := tx.Lookup(w.idxCustomer, customerKey(t.wid, t.did, t.cid))
	if !ok {
		panic("tpcc: customer missing")
	}
	if _, err := tx.Read(w.customer, cslot, CBalance); err != nil {
		return err
	}

	// The customer's orders, ascending by oid; the last is the newest.
	orders := tx.RangeScan(w.ordCustOrders,
		custOrderKey(t.wid, t.did, t.cid, 0),
		custOrderKey(t.wid, t.did, t.cid, 0xffff))
	if len(orders) == 0 {
		return nil // customer has not ordered yet (no pre-loaded orders)
	}
	last := orders[len(orders)-1]
	osc := w.orders.Schema
	orow, err := tx.Read(w.orders, int(last.Slot), OID, OEntryD, OCarrierID, OOLCnt)
	if err != nil {
		return err
	}
	oid := osc.GetU64(orow, OID)
	olCnt := osc.GetU64(orow, OOLCnt)

	// The order's lines, via the ORDER_LINE ordered index.
	lines := tx.RangeScan(w.ordLines,
		orderLineKey(t.wid, t.did, oid, 1),
		orderLineKey(t.wid, t.did, oid, olCnt))
	for _, e := range lines {
		// The columns the spec returns per line.
		if _, err := tx.Read(w.orderline, int(e.Slot), OLIID, OLSupplyWID, OLDeliveryD, OLQuantity, OLAmount); err != nil {
			return err
		}
	}
	return nil
}

// Partitions implements core.Txn.
func (t *orderStatusTxn) Partitions() []int { return t.parts }

// MayRollBack implements core.RollbackDeclarer: it never rolls back.
func (t *orderStatusTxn) MayRollBack() bool { return false }

var _ core.Txn = (*orderStatusTxn)(nil)

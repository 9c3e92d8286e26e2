package tpcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
)

// deliveryTxn is the TPC-C Delivery transaction (full mix only): for each
// district of the home warehouse, deliver the oldest undelivered order —
// stamp the carrier on ORDERS, stamp the delivery date on its ORDER_LINE
// rows, and credit the customer's balance with the order total. The
// order's lines come from one range scan of ORDER_LINE_ORD, the table's
// only index under the full mix, over line numbers 1 to O_OL_CNT.
//
// The spec's implementation deletes the NEW_ORDER row; a transaction in
// this engine cannot delete a row (its indexes can remove an entry, but
// no TxnCtx operation deletes), so DISTRICT carries a delivery cursor
// (DDelivOID) instead: orders at most the cursor are delivered.
// Committed order ids are gap-free per district (D_NEXT_O_ID only
// advances on commit), so the next undelivered order is exactly
// cursor+1. A NewOrder publishes its
// index entries at its scheme's commit point, before its D_NEXT_O_ID is
// visible, so that order's NEW_ORDER entry is in the index. The cursor
// still advances only when the range scan finds entry cursor+1 itself
// (the contiguous-advance rule); a district whose next order has no entry
// is skipped this time. The rule goes when Delivery deletes the NEW_ORDER
// row instead.
type deliveryTxn struct {
	wl *Workload

	wid     uint64
	carrier uint64
	parts   []int
}

// Generate draws the inputs (spec §2.7.1).
func (t *deliveryTxn) Generate(p rt.Proc) {
	t.wid = t.wl.homeWarehouse(p)
	t.carrier = uint64(p.Rand().Intn(10)) + 1
	t.parts = append(t.parts[:0], t.wl.partitionOf(t.wid))
}

// Run implements core.Txn.
func (t *deliveryTxn) Run(tx *core.TxnCtx) error {
	w := t.wl
	dsc := w.district.Schema
	osc := w.orders.Schema
	olsc := w.orderline.Schema
	csc := w.customer.Schema

	for did := uint64(1); did <= uint64(w.cfg.DistrictsPerWarehouse); did++ {
		dslot, ok := tx.Lookup(w.idxDistrict, districtKey(t.wid, did))
		if !ok {
			panic("tpcc: district missing")
		}
		drow, err := tx.UpdateRow(w.district, dslot, DNextOID, DDelivOID)
		if err != nil {
			return err
		}
		cursor := dsc.GetU64(drow, DDelivOID)
		next := dsc.GetU64(drow, DNextOID)
		oid := cursor + 1
		if oid >= next {
			continue // no undelivered orders in this district
		}
		found := tx.RangeScanLimit(w.ordNewOrder,
			orderKey(t.wid, did, oid), orderKey(t.wid, did, next-1), 1)
		if len(found) == 0 || found[0].Key != orderKey(t.wid, did, oid) {
			// Order oid has no NEW_ORDER entry; leave the cursor so it
			// is delivered next time.
			continue
		}
		dsc.PutU64(drow, DDelivOID, oid)

		oslot, ok := tx.Lookup(w.idxOrders, orderKey(t.wid, did, oid))
		if !ok {
			// Published NEW_ORDER entry implies the ORDERS entry is
			// published too (insert order); see neworder.go.
			panic("tpcc: delivered order missing from ORDERS")
		}
		orow, err := tx.UpdateRow(w.orders, oslot, OCID, OCarrierID, OOLCnt)
		if err != nil {
			return err
		}
		osc.PutU64(orow, OCarrierID, t.carrier)
		cid := osc.GetU64(orow, OCID)
		olCnt := osc.GetU64(orow, OOLCnt)

		lines := tx.RangeScan(w.ordLines, orderLineKey(t.wid, did, oid, 1), orderLineKey(t.wid, did, oid, olCnt))
		if uint64(len(lines)) < olCnt {
			panic("tpcc: delivered order line missing")
		}
		var total int64
		for _, e := range lines {
			olrow, err := tx.UpdateRow(w.orderline, int(e.Slot), OLDeliveryD, OLAmount)
			if err != nil {
				return err
			}
			olsc.PutU64(olrow, OLDeliveryD, tx.P.Now())
			total += olsc.GetI64(olrow, OLAmount)
		}

		cslot, ok := tx.Lookup(w.idxCustomer, customerKey(t.wid, did, cid))
		if !ok {
			panic("tpcc: delivered order's customer missing")
		}
		crow, err := tx.UpdateRow(w.customer, cslot, CBalance, CDeliveryCnt)
		if err != nil {
			return err
		}
		csc.PutI64(crow, CBalance, csc.GetI64(crow, CBalance)+total)
		csc.PutU64(crow, CDeliveryCnt, csc.GetU64(crow, CDeliveryCnt)+1)
	}
	return nil
}

// Partitions implements core.Txn.
func (t *deliveryTxn) Partitions() []int { return t.parts }

// MayRollBack implements core.RollbackDeclarer: it never rolls back.
func (t *deliveryTxn) MayRollBack() bool { return false }

var _ core.Txn = (*deliveryTxn)(nil)

package tpcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
)

// paymentTxn is the TPC-C Payment transaction: record a customer payment,
// updating warehouse, district and customer year-to-date totals and
// appending a HISTORY row. Every Payment updates its warehouse's W_YTD —
// the single-field hotspot the paper identifies as the Fig. 16 bottleneck
// when workers outnumber warehouses.
type paymentTxn struct {
	wl *Workload

	wid, did   uint64 // home warehouse/district (the payment is recorded here)
	cwid, cdid uint64 // customer's warehouse/district (15% remote)
	cid        uint64
	amount     int64
	parts      []int
	worker     int
}

// Generate draws the transaction inputs (spec §2.5.1, scaled).
func (t *paymentTxn) Generate(p rt.Proc) {
	cfg := &t.wl.cfg
	rng := p.Rand()
	t.worker = p.ID()
	t.wid = t.wl.homeWarehouse(p)
	t.did = uint64(rng.Intn(cfg.DistrictsPerWarehouse)) + 1
	t.cwid, t.cdid = t.wid, t.did
	if cfg.Warehouses > 1 && rng.Float64() < cfg.RemotePaymentPct {
		for {
			t.cwid = uint64(rng.Intn(cfg.Warehouses)) + 1
			if t.cwid != t.wid {
				break
			}
		}
		t.cdid = uint64(rng.Intn(cfg.DistrictsPerWarehouse)) + 1
	}
	t.cid = uint64(rng.Intn(cfg.CustomersPerDistrict)) + 1
	t.amount = int64(rng.Intn(499901) + 100) // $1.00 - $5,000.00

	t.parts = append(t.parts[:0], t.wl.partitionOf(t.wid), t.wl.partitionOf(t.cwid))
}

// Run implements core.Txn.
func (t *paymentTxn) Run(tx *core.TxnCtx) error {
	w := t.wl

	// Warehouse: W_YTD += amount (the hotspot).
	wslot, ok := tx.Lookup(w.idxWarehouse, warehouseKey(t.wid))
	if !ok {
		panic("tpcc: warehouse missing")
	}
	sc := w.warehouse.Schema
	wrow, err := tx.UpdateRow(w.warehouse, wslot, WYTD)
	if err != nil {
		return err
	}
	sc.PutI64(wrow, WYTD, sc.GetI64(wrow, WYTD)+t.amount)

	// District: D_YTD += amount.
	dslot, ok := tx.Lookup(w.idxDistrict, districtKey(t.wid, t.did))
	if !ok {
		panic("tpcc: district missing")
	}
	dsc := w.district.Schema
	drow, err := tx.UpdateRow(w.district, dslot, DYTD)
	if err != nil {
		return err
	}
	dsc.PutI64(drow, DYTD, dsc.GetI64(drow, DYTD)+t.amount)

	// Customer: balance down, YTD payment up, payment count up.
	cslot, ok := tx.Lookup(w.idxCustomer, customerKey(t.cwid, t.cdid, t.cid))
	if !ok {
		panic("tpcc: customer missing")
	}
	csc := w.customer.Schema
	crow, err := tx.UpdateRow(w.customer, cslot, CBalance, CYTDPayment, CPaymentCnt)
	if err != nil {
		return err
	}
	csc.PutI64(crow, CBalance, csc.GetI64(crow, CBalance)-t.amount)
	csc.PutI64(crow, CYTDPayment, csc.GetI64(crow, CYTDPayment)+t.amount)
	csc.PutU64(crow, CPaymentCnt, csc.GetU64(crow, CPaymentCnt)+1)

	// History append.
	w.hseq[t.worker]++
	hkey := historyKey(t.worker, w.hseq[t.worker])
	hsc := w.history.Schema
	hrow := tx.InsertRow(w.idxHistory, hkey)
	hsc.PutU64(hrow, HCID, t.cid)
	hsc.PutU64(hrow, HCDID, t.cdid)
	hsc.PutU64(hrow, HCWID, t.cwid)
	hsc.PutU64(hrow, HDID, t.did)
	hsc.PutU64(hrow, HWID, t.wid)
	hsc.PutU64(hrow, HDate, tx.P.Now())
	hsc.PutI64(hrow, HAmount, t.amount)
	return nil
}

// Partitions implements core.Txn.
func (t *paymentTxn) Partitions() []int { return t.parts }

// MayRollBack implements core.RollbackDeclarer: it never rolls back.
func (t *paymentTxn) MayRollBack() bool { return false }

var _ core.Txn = (*paymentTxn)(nil)

package tpcc

import (
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
)

// stockLevelTxn is the TPC-C StockLevel transaction (full mix only): a
// read-only analytics query counting the distinct items among a
// district's 20 most recent orders whose stock has fallen below a
// threshold. The recent order lines come from one range scan over the
// ORDER_LINE ordered index; each distinct item then costs one STOCK read
// through the scheme.
type stockLevelTxn struct {
	wl *Workload

	wid, did  uint64
	threshold int64
	seen      map[uint64]bool
	parts     []int
}

// Generate draws the inputs (spec §2.8.1: threshold uniform in [10, 20]).
func (t *stockLevelTxn) Generate(p rt.Proc) {
	cfg := &t.wl.cfg
	rng := p.Rand()
	t.wid = t.wl.homeWarehouse(p)
	t.did = uint64(rng.Intn(cfg.DistrictsPerWarehouse)) + 1
	t.threshold = int64(rng.Intn(11)) + 10
	t.parts = append(t.parts[:0], t.wl.partitionOf(t.wid))
}

// Run implements core.Txn.
func (t *stockLevelTxn) Run(tx *core.TxnCtx) error {
	w := t.wl

	dslot, ok := tx.Lookup(w.idxDistrict, districtKey(t.wid, t.did))
	if !ok {
		panic("tpcc: district missing")
	}
	dsc := w.district.Schema
	drow, err := tx.Read(w.district, dslot, DNextOID)
	if err != nil {
		return err
	}
	next := dsc.GetU64(drow, DNextOID)
	if next <= 1 {
		return nil // no orders in this district yet
	}
	lo := uint64(1) // spec §2.8.2.2: D_NEXT_O_ID-20 <= OL_O_ID < D_NEXT_O_ID
	if next > 20 {
		lo = next - 20
	}

	// All lines of the last 20 orders in one scan (order line numbers
	// occupy the key's low 16 bits, so the oid range is contiguous).
	lines := tx.RangeScan(w.ordLines,
		orderLineKey(t.wid, t.did, lo, 0),
		orderLineKey(t.wid, t.did, next-1, 0xffff))

	if t.seen == nil {
		t.seen = make(map[uint64]bool, 64)
	} else {
		for k := range t.seen {
			delete(t.seen, k)
		}
	}
	olsc := w.orderline.Schema
	ssc := w.stock.Schema
	low := 0
	for _, e := range lines {
		olrow, err := tx.Read(w.orderline, int(e.Slot), OLIID)
		if err != nil {
			return err
		}
		iid := olsc.GetU64(olrow, OLIID)
		if t.seen[iid] {
			continue
		}
		t.seen[iid] = true
		sslot, ok := tx.Lookup(w.idxStock, stockKey(t.wid, iid))
		if !ok {
			panic("tpcc: stock missing")
		}
		srow, err := tx.Read(w.stock, sslot, SQuantity)
		if err != nil {
			return err
		}
		if ssc.GetI64(srow, SQuantity) < t.threshold {
			low++
		}
	}
	_ = low // query output
	return nil
}

// Partitions implements core.Txn.
func (t *stockLevelTxn) Partitions() []int { return t.parts }

// MayRollBack implements core.RollbackDeclarer: it never rolls back.
func (t *stockLevelTxn) MayRollBack() bool { return false }

var _ core.Txn = (*stockLevelTxn)(nil)

package tatp

import (
	"abyss1000/abyss"
	"abyss1000/query"
)

// TATP transactions commit even when the row they target is absent — the
// benchmark counts that as a "failed" outcome of a successful
// transaction. The procedures below therefore return nil on a miss; only
// concurrency-control aborts propagate.

// getSubscriberDataTxn reads one subscriber row (35% of the mix).
type getSubscriberDataTxn struct {
	wl    *Workload
	sid   uint64
	parts []int
}

func (t *getSubscriberDataTxn) Generate(p abyss.Proc) {
	t.sid = t.wl.drawSubscriber(p)
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *getSubscriberDataTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	slot, ok := tx.Lookup(w.idxSub, t.sid)
	if !ok {
		panic("tatp: subscriber missing")
	}
	_, err := tx.Read(w.subscriber, slot)
	return err
}

func (t *getSubscriberDataTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *getSubscriberDataTxn) MayRollBack() bool { return false }

// getNewDestinationTxn (10%) finds the active forwarding number for a
// (subscriber, facility) at a query time: the benchmark's one range
// query, executed as an abyss1000/query plan over the CALL_FORWARDING
// ordered index — forwardings with START_TIME <= time are one contiguous
// key range, and the filter keeps active rows whose END_TIME is after
// the call.
type getNewDestinationTxn struct {
	wl    *Workload
	sid   uint64
	sf    uint64
	start uint64
	end   uint64
	dest  []uint64
	parts []int
}

func (t *getNewDestinationTxn) Generate(p abyss.Proc) {
	rng := p.Rand()
	t.sid = t.wl.drawSubscriber(p)
	t.sf = uint64(rng.Intn(4)) + 1
	t.start = cfStarts[rng.Intn(3)]
	t.end = uint64(rng.Intn(24)) + 1
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *getNewDestinationTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl

	// The facility must exist and be active.
	sfSlot, ok := tx.Lookup(w.idxSF, sfKey(t.sid, t.sf))
	if !ok {
		return nil // failure outcome: no such facility
	}
	sfRow, err := tx.Read(w.specialFacility, sfSlot, colSFActive)
	if err != nil {
		return err
	}
	if w.specialFacility.Schema.GetU64(sfRow, colSFActive) == 0 {
		return nil // failure outcome: facility inactive
	}

	t.dest = t.dest[:0]
	err = query.IndexRange(w.ordCF, cfKey(t.sid, t.sf, 0), cfKey(t.sid, t.sf, t.start)).
		Filter(func(tu query.Tuple) bool {
			return tu[colCFActive] == 1 && t.end < tu[colCFEnd]
		}).
		Project(colCFNumberX).
		Run(tx, func(tu query.Tuple) error {
			t.dest = append(t.dest, tu[0])
			return nil
		})
	return err
}

func (t *getNewDestinationTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *getNewDestinationTxn) MayRollBack() bool { return false }

// getAccessDataTxn reads one ACCESS_INFO row (35%); about half the
// (subscriber, type) pairs exist.
type getAccessDataTxn struct {
	wl    *Workload
	sid   uint64
	ai    uint64
	parts []int
}

func (t *getAccessDataTxn) Generate(p abyss.Proc) {
	t.sid = t.wl.drawSubscriber(p)
	t.ai = uint64(p.Rand().Intn(4)) + 1
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *getAccessDataTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	slot, ok := tx.Lookup(w.idxAI, aiKey(t.sid, t.ai))
	if !ok {
		return nil // failure outcome
	}
	_, err := tx.Read(w.accessInfo, slot, colAIData) // the spec's DATA1..DATA4
	return err
}

func (t *getAccessDataTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *getAccessDataTxn) MayRollBack() bool { return false }

// updateSubscriberDataTxn (2%) toggles SUBSCRIBER.BIT_1 and overwrites
// the facility's DATA_A; the facility may not exist.
type updateSubscriberDataTxn struct {
	wl    *Workload
	sid   uint64
	sf    uint64
	bit   uint64
	data  uint64
	parts []int
}

func (t *updateSubscriberDataTxn) Generate(p abyss.Proc) {
	rng := p.Rand()
	t.sid = t.wl.drawSubscriber(p)
	t.sf = uint64(rng.Intn(4)) + 1
	t.bit = uint64(rng.Intn(2))
	t.data = rng.Uint64()
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *updateSubscriberDataTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	slot, ok := tx.Lookup(w.idxSub, t.sid)
	if !ok {
		panic("tatp: subscriber missing")
	}
	row, err := tx.UpdateRow(w.subscriber, slot, colBit1)
	if err != nil {
		return err
	}
	w.subscriber.Schema.PutU64(row, colBit1, t.bit)

	sfSlot, ok := tx.Lookup(w.idxSF, sfKey(t.sid, t.sf))
	if !ok {
		return nil // failure outcome: subscriber update still commits
	}
	sfRow, err := tx.UpdateRow(w.specialFacility, sfSlot, colSFData)
	if err != nil {
		return err
	}
	w.specialFacility.Schema.PutU64(sfRow, colSFData, t.data)
	return nil
}

func (t *updateSubscriberDataTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *updateSubscriberDataTxn) MayRollBack() bool { return false }

// updateLocationTxn (14%) overwrites SUBSCRIBER.VLR_LOCATION.
type updateLocationTxn struct {
	wl    *Workload
	sid   uint64
	loc   uint64
	parts []int
}

func (t *updateLocationTxn) Generate(p abyss.Proc) {
	t.sid = t.wl.drawSubscriber(p)
	t.loc = p.Rand().Uint64()
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *updateLocationTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	slot, ok := tx.Lookup(w.idxSub, t.sid)
	if !ok {
		panic("tatp: subscriber missing")
	}
	row, err := tx.UpdateRow(w.subscriber, slot, colVlrLoc)
	if err != nil {
		return err
	}
	w.subscriber.Schema.PutU64(row, colVlrLoc, t.loc)
	return nil
}

func (t *updateLocationTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *updateLocationTxn) MayRollBack() bool { return false }

// insertCallForwardingTxn (2%) adds a forwarding for one of the
// subscriber's facilities. The facility list comes from a range scan
// over the SPECIAL_FACILITY ordered index; the write on the facility row
// is the existence guard that serializes concurrent inserts of the same
// (subscriber, facility, start) — see the package comment.
type insertCallForwardingTxn struct {
	wl     *Workload
	sid    uint64
	pick   int
	start  uint64
	end    uint64
	numx   uint64
	budget int
	parts  []int
}

func (t *insertCallForwardingTxn) Generate(p abyss.Proc) {
	rng := p.Rand()
	t.sid = t.wl.drawSubscriber(p)
	t.pick = rng.Intn(4)
	t.start = cfStarts[rng.Intn(3)]
	t.end = t.start + uint64(rng.Intn(8)) + 1
	t.numx = rng.Uint64()
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *insertCallForwardingTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	csc := w.callForwarding.Schema

	facilities := tx.RangeScan(w.ordSF, sfKey(t.sid, 1), sfKey(t.sid, 4))
	if len(facilities) == 0 {
		return nil // failure outcome: subscriber has no facilities
	}
	fe := facilities[t.pick%len(facilities)]
	sf := fe.Key & 0xff

	// Existence guard: the facility row's CF mask decides exists vs
	// insert, read and updated under this transaction's write on the
	// row, so two concurrent inserts of the same combination conflict
	// here and the mask bit commits atomically with the inserted row.
	sfRow, err := tx.UpdateRow(w.specialFacility, int(fe.Slot), colSFCFMask)
	if err != nil {
		return err
	}
	ssc := w.specialFacility.Schema
	mask := ssc.GetU64(sfRow, colSFCFMask)
	bit := uint64(1) << (t.start / 8)

	if mask&bit != 0 {
		slot, ok := tx.Lookup(w.idxCF, cfKey(t.sid, sf, t.start))
		if !ok {
			// Materialized but not yet published; like a present,
			// active forwarding this is the failure outcome.
			return nil
		}
		row, err := tx.Read(w.callForwarding, slot, colCFActive)
		if err != nil {
			return err
		}
		if csc.GetU64(row, colCFActive) == 1 {
			return nil // failure outcome: forwarding already exists
		}
		// Reactivate the tombstone.
		wrow, err := tx.UpdateRow(w.callForwarding, slot, colCFEnd, colCFActive, colCFNumberX)
		if err != nil {
			return err
		}
		csc.PutU64(wrow, colCFActive, 1)
		csc.PutU64(wrow, colCFEnd, t.end)
		csc.PutU64(wrow, colCFNumberX, t.numx)
		return nil
	}

	if t.budget <= 0 {
		return nil // failure outcome: this worker's insert segment is spent
	}
	t.budget--
	ssc.PutU64(sfRow, colSFCFMask, mask|bit)
	key := cfKey(t.sid, sf, t.start)
	row := tx.InsertRowOrdered(w.idxCF, key, w.ordCF, key)
	csc.PutU64(row, colCFSID, t.sid)
	csc.PutU64(row, colCFSFType, sf)
	csc.PutU64(row, colCFStart, t.start)
	csc.PutU64(row, colCFEnd, t.end)
	csc.PutU64(row, colCFActive, 1)
	csc.PutU64(row, colCFNumberX, t.numx)
	return nil
}

func (t *insertCallForwardingTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *insertCallForwardingTxn) MayRollBack() bool { return false }

// deleteCallForwardingTxn (2%) tombstones a forwarding (ACTIVE = 0).
type deleteCallForwardingTxn struct {
	wl    *Workload
	sid   uint64
	sf    uint64
	start uint64
	parts []int
}

func (t *deleteCallForwardingTxn) Generate(p abyss.Proc) {
	rng := p.Rand()
	t.sid = t.wl.drawSubscriber(p)
	t.sf = uint64(rng.Intn(4)) + 1
	t.start = cfStarts[rng.Intn(3)]
	t.parts = append(t.parts[:0], t.wl.partition(t.sid))
}

func (t *deleteCallForwardingTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	csc := w.callForwarding.Schema
	slot, ok := tx.Lookup(w.idxCF, cfKey(t.sid, t.sf, t.start))
	if !ok {
		return nil // failure outcome
	}
	row, err := tx.Read(w.callForwarding, slot, colCFActive)
	if err != nil {
		return err
	}
	if csc.GetU64(row, colCFActive) == 0 {
		return nil // failure outcome: already deleted
	}
	wrow, err := tx.UpdateRow(w.callForwarding, slot, colCFActive)
	if err != nil {
		return err
	}
	csc.PutU64(wrow, colCFActive, 0)
	return nil
}

func (t *deleteCallForwardingTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *deleteCallForwardingTxn) MayRollBack() bool { return false }

var (
	_ abyss.Generator = (*getSubscriberDataTxn)(nil)
	_ abyss.Generator = (*getNewDestinationTxn)(nil)
	_ abyss.Generator = (*getAccessDataTxn)(nil)
	_ abyss.Generator = (*updateSubscriberDataTxn)(nil)
	_ abyss.Generator = (*updateLocationTxn)(nil)
	_ abyss.Generator = (*insertCallForwardingTxn)(nil)
	_ abyss.Generator = (*deleteCallForwardingTxn)(nil)
)

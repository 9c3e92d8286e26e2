package main

import (
	"fmt"
	"time"

	"abyss1000/abyss"
)

// The index probe: three benchmark-owned procedures in an abyss.Mix that
// time TxnCtx's index calls on a table of the probe's own, through the
// same public transactional surface TPC-C uses. One native worker, so
// there is no contention and nothing aborts; the run is bounded by work
// (probeTxns transactions, then DB.Interrupt), not by time, so a faster
// engine cannot run the insert segment dry.
//
//   - point:  16 × (hash Lookup + Read) of uniformly drawn keys
//   - scan:   one ordered RangeScan of 100 consecutive keys
//   - insert: one InsertRowOrdered of the next key above everything loaded
//
// An insert is staged in the body and published into both indexes at
// commit, outside any call the procedure can time. Its cost is therefore
// taken from the workload wrapper's stamps: what an insert transaction
// takes in full, less what a point transaction takes outside its timed
// block (the cost of an otherwise empty transaction).
const (
	probeRows     = 300_000 // about TPC-C's ORDER_LINE after a measured round
	probeTxns     = 150_000
	probePerPoint = 16
	probeScanLen  = 100
)

const (
	probePoint = iota
	probeScan
	probeInsert
)

type probeEntry struct {
	kind int
	ns   int64 // the timed block inside the body
	n    int   // operations inside the block
}

type probeState struct {
	db      *abyss.DB
	table   *abyss.Table
	hash    *abyss.Index
	ord     *abyss.OrderedIndex
	log     []probeEntry // one per executed transaction, in order
	nextKey uint64
}

func (s *probeState) record(kind int, ns int64, n int) {
	s.log = append(s.log, probeEntry{kind, ns, n})
	if len(s.log) == probeTxns {
		s.db.Interrupt()
	}
}

type probePointTxn struct {
	s    *probeState
	keys [probePerPoint]uint64
}

func (t *probePointTxn) Generate(p abyss.Proc) {
	for i := range t.keys {
		t.keys[i] = uint64(p.Rand().Intn(probeRows))
	}
}

func (t *probePointTxn) Run(tx *abyss.TxnCtx) error {
	t0 := time.Now()
	for _, k := range t.keys {
		slot, ok := tx.Lookup(t.s.hash, k)
		if !ok {
			return fmt.Errorf("probe: key %d missing from the hash index", k)
		}
		if _, err := tx.Read(t.s.table, slot); err != nil {
			return err
		}
	}
	t.s.record(probePoint, int64(time.Since(t0)), probePerPoint)
	return nil
}

func (t *probePointTxn) Partitions() []int { return nil }

type probeScanTxn struct {
	s  *probeState
	lo uint64
}

func (t *probeScanTxn) Generate(p abyss.Proc) {
	t.lo = uint64(p.Rand().Intn(probeRows - probeScanLen))
}

func (t *probeScanTxn) Run(tx *abyss.TxnCtx) error {
	t0 := time.Now()
	entries := tx.RangeScan(t.s.ord, t.lo, t.lo+probeScanLen-1)
	d := int64(time.Since(t0))
	if len(entries) != probeScanLen {
		return fmt.Errorf("probe: scan of [%d, %d] returned %d entries, want %d", t.lo, t.lo+probeScanLen-1, len(entries), probeScanLen)
	}
	t.s.record(probeScan, d, len(entries))
	return nil
}

func (t *probeScanTxn) Partitions() []int { return nil }

type probeInsertTxn struct{ s *probeState }

func (t *probeInsertTxn) Run(tx *abyss.TxnCtx) error {
	t0 := time.Now()
	key := t.s.nextKey
	t.s.nextKey++
	row := tx.InsertRowOrdered(t.s.hash, key, t.s.ord, key)
	t.s.table.Schema.PutU64(row, 0, key)
	t.s.record(probeInsert, int64(time.Since(t0)), 1)
	return nil
}

func (t *probeInsertTxn) Partitions() []int { return nil }

// runIndexProbe returns ns per point read, ns per scanned entry and ns per
// ordered insert, each a median over the probe's transactions.
func runIndexProbe(seed int64) (pointNS, scanNS, insertNS value, err error) {
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 1, Seed: seed})
	if err != nil {
		return
	}
	s := &probeState{db: db, log: make([]probeEntry, 0, probeTxns+1), nextKey: probeRows}
	s.table, err = db.CreateTable(abyss.TableSpec{
		Name:     "PROBE",
		Cols:     []abyss.Col{{Name: "KEY", Width: 8}, {Name: "PAD", Width: 56}},
		Capacity: probeRows + probeTxns + 1, Loaded: probeRows,
	})
	if err != nil {
		return
	}
	if s.hash, err = db.CreateIndex("PROBE_PK", s.table, probeRows+probeTxns); err != nil {
		return
	}
	if s.ord, err = db.CreateOrderedIndex("PROBE_ORD", s.table); err != nil {
		return
	}
	for i := 0; i < probeRows; i++ {
		s.table.Schema.PutU64(s.table.LoadRow(i), 0, uint64(i))
		s.hash.LoadInsert(uint64(i), i)
		s.ord.LoadInsert(uint64(i), i)
	}
	mix, err := db.NewMix(
		abyss.TxnSpec{Name: "point", Weight: 1, New: func(int) abyss.Txn { return &probePointTxn{s: s} }},
		abyss.TxnSpec{Name: "scan", Weight: 1, New: func(int) abyss.Txn { return &probeScanTxn{s: s} }},
		abyss.TxnSpec{Name: "insert", Weight: 1, New: func(int) abyss.Txn { return &probeInsertTxn{s: s} }},
	)
	if err != nil {
		return
	}
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		return
	}
	obs := observe(mix, 1, time.Now(), nil, true)
	// The window is far longer than probeTxns transactions take; the
	// probe ends itself.
	res, err := db.Run(scheme, obs, abyss.RunConfig{MeasureCycles: uint64(20 * time.Second)})
	if err != nil {
		return
	}
	if res.Aborts != 0 {
		err = fmt.Errorf("probe: %d aborts on one worker", res.Aborts)
		return
	}
	stamps := obs.workers[0].stamps
	var point, scan, base, insert []float64
	for i, e := range s.log {
		if i+1 >= len(stamps) {
			break // the last transaction has no following Next
		}
		gap := float64(stamps[i+1] - stamps[i])
		switch e.kind {
		case probePoint:
			point = append(point, float64(e.ns)/float64(e.n))
			base = append(base, gap-float64(e.ns))
		case probeScan:
			scan = append(scan, float64(e.ns)/float64(e.n))
		case probeInsert:
			insert = append(insert, gap)
		}
	}
	pointNS = value{median(point), len(point)}
	scanNS = value{median(scan), len(scan)}
	insertNS = value{median(insert) - median(base), len(insert)}
	return
}

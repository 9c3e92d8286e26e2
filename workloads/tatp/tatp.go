// Package tatp implements the TATP telecom benchmark (Neuvonen et al.,
// "Telecom Application Transaction Processing Benchmark", 2009) as a
// workload for the abyss engine, built — like workloads/smallbank —
// purely on the public abyss API plus the query operator layer.
//
// TATP models a Home Location Register: four tables keyed by subscriber
// id (SUBSCRIBER, ACCESS_INFO, SPECIAL_FACILITY, CALL_FORWARDING) and
// seven very short transactions, 80% of them reads, drawn at the
// standard mix weights. The workload's signature traits are tiny
// single-subscriber footprints (almost no cross-transaction conflict at
// scale), reads that legitimately miss (a "failure" in TATP commits —
// the row simply is not there), and a range query, GetNewDestination,
// whose access path here is an ordered secondary index on
// CALL_FORWARDING executed through an abyss1000/query plan.
//
// Two departures from the spec sheet, both forced by the engine's
// storage model and shared with the TPC-C port:
//
//   - DeleteCallForwarding tombstones the row (ACTIVE = 0) instead of
//     deleting it — the engine has no index delete path — and
//     InsertCallForwarding reactivates a tombstone when one exists,
//     inserting a genuinely new row only for a never-seen (subscriber,
//     facility, start) combination.
//   - Each insert/delete first declares a write on the owning
//     SPECIAL_FACILITY row. That write is the existence guard: two
//     concurrent inserts of the same combination conflict on the parent
//     row under every scheme, so the lookup-miss-then-insert race cannot
//     stage duplicates.
//
// Registering the package (import _ "abyss1000/workloads/tatp") adds a
// "tatp" entry to the abyss workload registry.
package tatp

import (
	"fmt"

	"abyss1000/abyss"
)

// SUBSCRIBER columns.
const (
	colSID    = 0 // subscriber id
	colBit1   = 1 // BIT_1: flag toggled by UpdateSubscriberData
	colMscLoc = 2 // MSC_LOCATION
	colVlrLoc = 3 // VLR_LOCATION: overwritten by UpdateLocation
)

// ACCESS_INFO columns.
const (
	colAISID  = 0
	colAIType = 1 // 1..4
	colAIData = 2
)

// SPECIAL_FACILITY columns.
const (
	colSFSID    = 0
	colSFType   = 1 // 1..4
	colSFActive = 2 // 0/1
	colSFData   = 3 // DATA_A: overwritten by UpdateSubscriberData
	// colSFCFMask is not in the TATP schema: bit start/8 records that a
	// CALL_FORWARDING row for (subscriber, facility, start) is
	// materialized (active or tombstoned). InsertCallForwarding reads
	// and updates it under its write on this row, so the
	// exists-or-insert decision commits atomically with the inserted row.
	// It dates from when a committed row's index entries were published
	// after its locks released, so a lookup alone could not decide; it
	// goes with the tombstones, when the engine can delete.
	colSFCFMask = 4
)

// CALL_FORWARDING columns.
const (
	colCFSID     = 0
	colCFSFType  = 1 // 1..4
	colCFStart   = 2 // 0, 8 or 16
	colCFEnd     = 3 // hour the forwarding ends
	colCFActive  = 4 // 0 = tombstoned by DeleteCallForwarding
	colCFNumberX = 5 // forwarded-to number
)

// Procedure names, in mix order.
const (
	ProcGetSubscriberData    = "GetSubscriberData"
	ProcGetNewDestination    = "GetNewDestination"
	ProcGetAccessData        = "GetAccessData"
	ProcUpdateSubscriberData = "UpdateSubscriberData"
	ProcUpdateLocation       = "UpdateLocation"
	ProcInsertCallForwarding = "InsertCallForwarding"
	ProcDeleteCallForwarding = "DeleteCallForwarding"
)

// Procedures lists the seven transaction types in mix order.
var Procedures = []string{
	ProcGetSubscriberData, ProcGetNewDestination, ProcGetAccessData,
	ProcUpdateSubscriberData, ProcUpdateLocation,
	ProcInsertCallForwarding, ProcDeleteCallForwarding,
}

// weights are the standard TATP mix percentages, in Procedures order.
var weights = [7]float64{35, 10, 35, 2, 14, 2, 2}

// Config parameterizes the workload. Use DefaultConfig as the base.
type Config struct {
	// Subscribers is the SUBSCRIBER row count; every other table's
	// population derives deterministically from it.
	Subscribers int

	// InsertsPerWorker sizes each worker's CALL_FORWARDING insert
	// segment. A worker that exhausts its budget keeps running —
	// InsertCallForwarding then reports the spec's "failure" outcome
	// (still a commit) instead of staging a row.
	InsertsPerWorker int
}

// DefaultConfig returns the benchmark at laptop scale.
func DefaultConfig() Config {
	return Config{Subscribers: 65536, InsertsPerWorker: 4096}
}

// Key layouts. Subscriber ids are dense from 0, facility/access types are
// 1..4 and start times 0/8/16, so the packed keys below are collision-free
// and make per-(subscriber, facility) ranges contiguous in the ordered
// indexes.
func aiKey(sid uint64, ai uint64) uint64 { return sid<<8 | ai }
func sfKey(sid uint64, sf uint64) uint64 { return sid<<8 | sf }
func cfKey(sid, sf, start uint64) uint64 { return sid<<16 | sf<<8 | start }

// mix64 is a splitmix-style finalizer: the deterministic per-subscriber
// population derives from it, so loading needs no RNG and two Builds of
// the same Config produce identical databases.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// population describes subscriber sid's derived rows: nAI access-info
// types (1..nAI), nSF facility types (1..nSF), per-facility active flags
// and call-forwarding start-time counts.
type population struct{ h uint64 }

func popOf(sid uint64) population { return population{mix64(sid + 1)} }

func (p population) nAI() int { return 1 + int(p.h&3) }
func (p population) nSF() int { return 1 + int(p.h>>2&3) }

// sfActive reports whether facility sf starts active (7/8 of them do).
func (p population) sfActive(sf uint64) bool { return p.h>>(4+sf)&7 != 0 }

// cfCount is the number of pre-loaded call forwardings for facility sf:
// 0-3 start times, loaded in 0, 8, 16 order.
func (p population) cfCount(sf uint64) int { return int(p.h >> (10 + 3*sf) & 3) }

// cfStarts enumerates the benchmark's three start times.
var cfStarts = [3]uint64{0, 8, 16}

// Workload is a populated TATP database plus the procedure mix; the
// embedded Mix is its Next, its TxnTypes and its named procedures.
type Workload struct {
	*abyss.Mix
	cfg Config

	subscriber, accessInfo, specialFacility, callForwarding *abyss.Table

	idxSub, idxAI, idxSF, idxCF *abyss.Index
	ordSF, ordCF                *abyss.OrderedIndex

	nparts int
}

// Build validates cfg, creates and populates the four tables on db, and
// returns the ready Workload.
func Build(db *abyss.DB, cfg Config) (*Workload, error) {
	if cfg.Subscribers < 1 {
		return nil, fmt.Errorf("tatp: Subscribers must be positive, got %d", cfg.Subscribers)
	}
	if cfg.Subscribers > 1<<47 {
		return nil, fmt.Errorf("tatp: Subscribers must fit the packed key layout (<= 2^47), got %d", cfg.Subscribers)
	}
	if cfg.InsertsPerWorker < 0 {
		return nil, fmt.Errorf("tatp: InsertsPerWorker must be non-negative, got %d", cfg.InsertsPerWorker)
	}
	w := &Workload{cfg: cfg, nparts: db.Cores()}

	// Pass 1: derive the exact population so tables load densely.
	nSub := cfg.Subscribers
	nAI, nSF, nCF := 0, 0, 0
	for i := 0; i < nSub; i++ {
		p := popOf(uint64(i))
		nAI += p.nAI()
		nSF += p.nSF()
		for sf := 1; sf <= p.nSF(); sf++ {
			nCF += p.cfCount(uint64(sf))
		}
	}

	var err error
	w.subscriber, err = db.CreateTable(abyss.TableSpec{
		Name: "SUBSCRIBER",
		Cols: []abyss.Col{
			{Name: "S_ID", Width: 8}, {Name: "BIT_1", Width: 8},
			{Name: "MSC_LOCATION", Width: 8}, {Name: "VLR_LOCATION", Width: 8},
		},
		Capacity: nSub, Loaded: nSub,
	})
	if err != nil {
		return nil, err
	}
	w.accessInfo, err = db.CreateTable(abyss.TableSpec{
		Name: "ACCESS_INFO",
		Cols: []abyss.Col{
			{Name: "AI_S_ID", Width: 8}, {Name: "AI_TYPE", Width: 8},
			{Name: "AI_DATA", Width: 8},
		},
		Capacity: nAI, Loaded: nAI,
	})
	if err != nil {
		return nil, err
	}
	w.specialFacility, err = db.CreateTable(abyss.TableSpec{
		Name: "SPECIAL_FACILITY",
		Cols: []abyss.Col{
			{Name: "SF_S_ID", Width: 8}, {Name: "SF_TYPE", Width: 8},
			{Name: "SF_IS_ACTIVE", Width: 8}, {Name: "SF_DATA_A", Width: 8},
			{Name: "SF_CF_MASK", Width: 8},
		},
		Capacity: nSF, Loaded: nSF,
	})
	if err != nil {
		return nil, err
	}
	w.callForwarding, err = db.CreateTable(abyss.TableSpec{
		Name: "CALL_FORWARDING",
		Cols: []abyss.Col{
			{Name: "CF_S_ID", Width: 8}, {Name: "CF_SF_TYPE", Width: 8},
			{Name: "CF_START_TIME", Width: 8}, {Name: "CF_END_TIME", Width: 8},
			{Name: "CF_ACTIVE", Width: 8}, {Name: "CF_NUMBERX", Width: 8},
		},
		Capacity: nCF + cfg.InsertsPerWorker*db.Cores(), Loaded: nCF,
	})
	if err != nil {
		return nil, err
	}

	w.idxSub, err = db.CreateIndex("SUBSCRIBER_PK", w.subscriber, nSub)
	if err != nil {
		return nil, err
	}
	w.idxAI, err = db.CreateIndex("ACCESS_INFO_PK", w.accessInfo, nAI)
	if err != nil {
		return nil, err
	}
	w.idxSF, err = db.CreateIndex("SPECIAL_FACILITY_PK", w.specialFacility, nSF)
	if err != nil {
		return nil, err
	}
	w.idxCF, err = db.CreateIndex("CALL_FORWARDING_PK", w.callForwarding, nCF+1)
	if err != nil {
		return nil, err
	}
	// Ordered indexes: SF_ORD makes "the facility types of subscriber s"
	// one contiguous range; CF_ORD does the same for a facility's
	// forwardings ordered by start time (GetNewDestination's access path).
	w.ordSF, err = db.CreateOrderedIndex("SPECIAL_FACILITY_ORD", w.specialFacility)
	if err != nil {
		return nil, err
	}
	w.ordCF, err = db.CreateOrderedIndex("CALL_FORWARDING_ORD", w.callForwarding)
	if err != nil {
		return nil, err
	}

	// Pass 2: load.
	aiSlot, sfSlot, cfSlot := 0, 0, 0
	for i := 0; i < nSub; i++ {
		sid := uint64(i)
		p := popOf(sid)

		srow := w.subscriber.LoadRow(i)
		ssc := w.subscriber.Schema
		ssc.PutU64(srow, colSID, sid)
		ssc.PutU64(srow, colBit1, p.h>>1&1)
		ssc.PutU64(srow, colMscLoc, mix64(p.h))
		ssc.PutU64(srow, colVlrLoc, mix64(p.h+1))
		w.idxSub.LoadInsert(sid, i)

		for ai := uint64(1); ai <= uint64(p.nAI()); ai++ {
			row := w.accessInfo.LoadRow(aiSlot)
			sc := w.accessInfo.Schema
			sc.PutU64(row, colAISID, sid)
			sc.PutU64(row, colAIType, ai)
			sc.PutU64(row, colAIData, mix64(p.h+ai))
			w.idxAI.LoadInsert(aiKey(sid, ai), aiSlot)
			aiSlot++
		}

		for sf := uint64(1); sf <= uint64(p.nSF()); sf++ {
			row := w.specialFacility.LoadRow(sfSlot)
			sc := w.specialFacility.Schema
			sc.PutU64(row, colSFSID, sid)
			sc.PutU64(row, colSFType, sf)
			if p.sfActive(sf) {
				sc.PutU64(row, colSFActive, 1)
			}
			sc.PutU64(row, colSFData, mix64(p.h+16+sf))
			w.idxSF.LoadInsert(sfKey(sid, sf), sfSlot)
			w.ordSF.LoadInsert(sfKey(sid, sf), sfSlot)

			mask := uint64(0)
			for c := 0; c < p.cfCount(sf); c++ {
				start := cfStarts[c]
				mask |= 1 << (start / 8)
				crow := w.callForwarding.LoadRow(cfSlot)
				csc := w.callForwarding.Schema
				csc.PutU64(crow, colCFSID, sid)
				csc.PutU64(crow, colCFSFType, sf)
				csc.PutU64(crow, colCFStart, start)
				csc.PutU64(crow, colCFEnd, start+1+mix64(p.h+32+start)%8)
				csc.PutU64(crow, colCFActive, 1)
				csc.PutU64(crow, colCFNumberX, mix64(p.h+64+start))
				w.idxCF.LoadInsert(cfKey(sid, sf, start), cfSlot)
				w.ordCF.LoadInsert(cfKey(sid, sf, start), cfSlot)
				cfSlot++
			}
			sc.PutU64(row, colSFCFMask, mask)
			sfSlot++
		}
	}

	specs := []abyss.TxnSpec{
		{Name: ProcGetSubscriberData, Weight: weights[0], New: func(int) abyss.Txn { return &getSubscriberDataTxn{wl: w} }},
		{Name: ProcGetNewDestination, Weight: weights[1], New: func(int) abyss.Txn { return &getNewDestinationTxn{wl: w} }},
		{Name: ProcGetAccessData, Weight: weights[2], New: func(int) abyss.Txn { return &getAccessDataTxn{wl: w} }},
		{Name: ProcUpdateSubscriberData, Weight: weights[3], New: func(int) abyss.Txn { return &updateSubscriberDataTxn{wl: w} }},
		{Name: ProcUpdateLocation, Weight: weights[4], New: func(int) abyss.Txn { return &updateLocationTxn{wl: w} }},
		{Name: ProcInsertCallForwarding, Weight: weights[5], New: func(int) abyss.Txn {
			return &insertCallForwardingTxn{wl: w, budget: cfg.InsertsPerWorker}
		}},
		{Name: ProcDeleteCallForwarding, Weight: weights[6], New: func(int) abyss.Txn { return &deleteCallForwardingTxn{wl: w} }},
	}
	if w.Mix, err = db.NewMix(specs...); err != nil {
		return nil, err
	}
	return w, nil
}

// CallForwarding returns the CALL_FORWARDING table (for checkers).
func (w *Workload) CallForwarding() *abyss.Table { return w.callForwarding }

// subscriber draws a uniform subscriber id (the benchmark's default,
// non-skewed population).
func (w *Workload) drawSubscriber(p abyss.Proc) uint64 {
	return uint64(p.Rand().Intn(w.cfg.Subscribers))
}

// partition maps a subscriber to an H-STORE partition; all four tables
// co-partition by subscriber id.
func (w *Workload) partition(sid uint64) int {
	return int(sid % uint64(w.nparts))
}

func init() {
	abyss.MustRegisterWorkload(abyss.WorkloadInfo{
		Name:      "tatp",
		Desc:      "TATP: seven short HLR transactions, 80% reads, range queries via ordered index (extension)",
		Extension: true,
		Defaults: func() abyss.WorkloadParams {
			c := DefaultConfig()
			return abyss.WorkloadParams{
				Subscribers:      c.Subscribers,
				InsertsPerWorker: c.InsertsPerWorker,
			}
		},
		Build: func(db *abyss.DB, p abyss.WorkloadParams) (abyss.Workload, error) {
			cfg := DefaultConfig()
			cfg.Subscribers = p.Subscribers
			if p.InsertsPerWorker > 0 {
				cfg.InsertsPerWorker = p.InsertsPerWorker
			}
			return Build(db, cfg)
		},
	})
}

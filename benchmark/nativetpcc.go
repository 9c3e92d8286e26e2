package main

import (
	"fmt"
	"runtime"
	"time"

	"abyss1000/abyss"
)

// native-tpcc: the host cost of the transaction path. One native worker
// runs the full five-transaction TPC-C mix on one warehouse — ordered-index
// inserts and range scans (NewOrder, OrderStatus, Delivery, StockLevel)
// beside hash point reads and updates — under one scheme from each
// internal/cc package in turn. One worker, because on this class of
// machine two workers repeat a third worse than one and the second worker
// measures the host's scheduler; nothing here goes near the simulator's
// handoff, the wire or the WAL.
const (
	tpccWarehouses = 1
	tpccBackoff    = 1000

	// A round is bounded by work, not time: the same number of
	// transactions whatever the engine's speed, so the insert segments
	// below are sized once and a faster engine can never exhaust them,
	// every round of a seed runs the same transactions, and the heap at
	// the end of a round does not depend on how fast it went.
	tpccWarmTxns     = 5_000
	tpccMeasuredTxns = 40_000

	// NewOrder (45 % of the mix) and Payment (43 %) each insert into one
	// segment per transaction; 55 % of a round's transactions leaves the
	// binomial draw twenty standard deviations of room.
	tpccInsertShare = 0.55

	tpccCheckTxns = 3_000 // per worker
)

// One scheme per internal/cc package: twopl, to, mvcc, occ, hstore.
var tpccSchemes = []string{"NO_WAIT", "TIMESTAMP", "MVCC", "OCC", "HSTORE"}

var tpccTypes = []string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}

type tpccRound struct {
	openS, buildS float64
	res           abyss.Result
	heap          float64
	tps           float64   // measured transactions over the time they took, all workers
	allocsPerTxn  float64   // heap objects allocated per measured transaction
	ts            *traceSet // traced rounds only
	bodyUS        float64   // traced: Σ txn.body / transactions, measured part
	nextUS        float64   // traced: Σ gen.next / transactions
	overheadUS    float64   // traced: core.txn self time / transactions
}

// tpccSizes returns a round's warm-up and total length in Next calls per
// worker.
func tpccSizes(c *runCtx) (warm, limit int) {
	warm = int(float64(tpccWarmTxns) * c.scale)
	return warm, warm + int(float64(tpccMeasuredTxns)*c.scale)
}

func tpccOpen(seed int64, workers, txnsPerWorker int) (db *abyss.DB, wl abyss.Workload, openS, buildS float64, err error) {
	t0 := time.Now()
	db, err = abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: workers, Seed: seed})
	if err != nil {
		return
	}
	p, err := abyss.DefaultWorkloadParams("tpcc")
	if err != nil {
		return
	}
	p.Mix = "full"
	p.Warehouses = tpccWarehouses
	p.InsertsPerWorker = int(float64(txnsPerWorker)*tpccInsertShare) + 64
	t1 := time.Now()
	wl, err = db.BuildWorkload("tpcc", p)
	t2 := time.Now()
	return db, wl, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), err
}

// tpccRun runs scheme over a fresh database until one worker has drawn
// limit transactions.
func tpccRun(seed int64, scheme string, workers, warm, limit int, ts *traceSet, check bool) (db *abyss.DB, obs *observedWorkload, r tpccRound, err error) {
	// The worker that reaches the limit stops the others at their next
	// transaction boundary; none can be more than a few ahead of it.
	db, wl, openS, buildS, err := tpccOpen(seed, workers, limit+64)
	if err != nil {
		return
	}
	r.openS, r.buildS = openS, buildS
	s, err := abyss.NewScheme(scheme)
	if err != nil {
		return
	}
	epoch := time.Now()
	if ts != nil {
		epoch = ts.epoch
	}
	obs = observe(wl, workers, epoch, ts, false)
	obs.warm, obs.limit, obs.interrupt = warm, limit, db.Interrupt
	// The window is far longer than any round; the wrapper ends the run.
	r.res, err = db.Run(s, obs, abyss.RunConfig{MeasureCycles: uint64(time.Hour), AbortBackoff: tpccBackoff, Check: check})
	if err == nil && !db.Interrupted() {
		err = fmt.Errorf("the run ended before %d transactions", limit)
	}
	return
}

func tpccRunRound(c *runCtx, scheme string, workers int, traced bool) (tpccRound, error) {
	var ts *traceSet
	if traced {
		ts = newTraceSet()
	}
	warm, limit := tpccSizes(c)
	base := heapMB() // also collects the previous round, so every build starts from the same heap
	db, obs, r, err := tpccRun(c.seed, scheme, workers, warm, limit, ts, false)
	if err != nil {
		return r, err
	}
	r.ts = ts
	r.heap = heapMB() - base
	runtime.KeepAlive(db)

	// Throughput: each worker's transactions between its warm'th and its
	// last Next call over the time they took, summed over the workers.
	for i := range obs.workers {
		w := &obs.workers[i]
		if w.n <= warm {
			return r, fmt.Errorf("worker %d drew %d transactions, fewer than the warm-up", i, w.n)
		}
		r.tps += w.rate(warm)
		if w.allocsAtLimit > 0 {
			r.allocsPerTxn = float64(w.allocsAtLimit-w.allocsAtWarm) / float64(limit-warm) / float64(workers)
		}
	}
	if ts != nil {
		w := &obs.workers[0]
		tpccSelfTimes(&r, w, w.tWarm, w.tLast)
	}
	return r, nil
}

// tpccSelfTimes closes the traced round's span tree — a core.txn span per
// transaction, from its Next to the following Next, parent of that
// transaction's gen.next and txn.body spans — and takes the per-layer
// times of the measured part from it. core.txn's self time is what the
// engine spends per transaction outside the workload's code: begin,
// commit, rollback, backoff, the worker loop.
func tpccSelfTimes(r *tpccRound, w *workerObs, lo, hi int64) {
	txnRec := r.ts.newRecorder(workerSpanCap)
	for i := 0; i+1 < len(w.stamps); i++ {
		txnRec.add(spanTxn, 0, uint64(i+1), w.stamps[i], w.stamps[i+1])
	}
	var total, body, next float64
	n := 0
	for i := range w.rec.spans {
		s := &w.rec.spans[i]
		if s.req == 0 || s.req > uint64(len(txnRec.spans)) {
			continue // the run's last transaction: no following Next closes it
		}
		parent := &txnRec.spans[s.req-1]
		s.parent = parent.id
		if parent.start < lo || parent.end > hi {
			continue
		}
		d := float64(s.end - s.start)
		if s.name == spanNext {
			next += d
			total += float64(parent.end - parent.start)
			n++
		} else {
			body += d
		}
	}
	if n > 0 {
		r.bodyUS = ns2us(body / float64(n))
		r.nextUS = ns2us(next / float64(n))
		r.overheadUS = ns2us((total - body - next) / float64(n))
	}
}

// tpccCheck runs a short captured round on two workers — one worker
// cannot interleave — and verifies the history is serializable.
func tpccCheck(c *runCtx, scheme string) (txns uint64, err error) {
	limit := max(int(float64(tpccCheckTxns)*c.scale), 100)
	db, _, r, err := tpccRun(c.seed, scheme, 2, 1, limit, nil, true)
	if err != nil {
		return 0, err
	}
	rep, err := db.CheckSerializability()
	if err != nil {
		return r.res.Commits, err
	}
	if !rep.OK() {
		return r.res.Commits, fmt.Errorf("%s", rep)
	}
	return r.res.Commits, nil
}

func runNativeTPCC(c *runCtx) (*report, error) {
	rep := newReport()
	plain := make(map[string][]tpccRound, len(tpccSchemes))
	traced := make(map[string][]tpccRound, len(tpccSchemes))
	var firstTrace *traceSet

	account := func(r tpccRound) {
		rep.attempted += r.res.Commits + r.res.Deadlined + r.res.Shed
		rep.failed += r.res.Deadlined + r.res.Shed
	}
	start := time.Now()
	var last time.Duration
	for c.fits(start, last) {
		t := time.Now()
		for _, name := range tpccSchemes {
			r, err := tpccRunRound(c, name, 1, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			plain[name] = append(plain[name], r)
			account(r)
			if !c.trace {
				continue
			}
			// A traced round right after its untraced twin, so the two
			// see the same machine.
			r, err = tpccRunRound(c, name, 1, true)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", name, err)
			}
			if firstTrace == nil {
				firstTrace = r.ts
			}
			r.ts = nil
			traced[name] = append(traced[name], r)
			account(r)
		}
		last = time.Since(t)
	}
	for _, name := range tpccSchemes {
		n, err := tpccCheck(c, name)
		rep.attempted += n
		if err != nil {
			rep.problemf("%s: serializability check: %v", name, err)
			rep.failed += n
		}
	}

	var setup, open, build []float64
	var tps, heap, allocs, perCore []float64
	byType := make(map[string][]float64, len(tpccTypes))
	detail := map[string]any{}
	for _, name := range tpccSchemes {
		var sTPS, sHeap, sAllocs, sPerCore []float64
		sType := make(map[string][]float64, len(tpccTypes))
		for _, r := range plain[name] {
			setup = append(setup, r.openS+r.buildS)
			open = append(open, r.openS)
			build = append(build, r.buildS)
			sTPS = append(sTPS, r.tps)
			sHeap = append(sHeap, r.heap)
			sAllocs = append(sAllocs, r.allocsPerTxn)
			pc, err := modelTxnPerCoreS(r.res, nativeModelComponents)
			if err != nil {
				return nil, err
			}
			sPerCore = append(sPerCore, pc)
			for i := range r.res.PerTxn {
				t := &r.res.PerTxn[i]
				sType[t.Name] = append(sType[t.Name], ns2us(float64(t.Latency.P50())))
			}
		}
		// One worker draws the same transactions every round of a seed and
		// nothing conflicts, so the cost model must bill every round alike.
		for i, pc := range sPerCore {
			if pc != sPerCore[0] {
				rep.problemf("%s: round %d bills %v transactions per modelled core second, round 1 of the same seed %v: the engine's accounting is not deterministic", name, i+1, pc, sPerCore[0])
				rep.failed += plain[name][i].res.Commits
			}
		}
		tps = append(tps, median(sTPS))
		heap = append(heap, median(sHeap))
		allocs = append(allocs, median(sAllocs))
		perCore = append(perCore, sPerCore[0])
		for _, t := range tpccTypes {
			byType[t] = append(byType[t], median(sType[t]))
		}
		rep.m["cc."+name+".tpcc_txn_per_s"] = value{median(sTPS), len(sTPS)}
		detail[name] = map[string]any{"txn_per_s": sTPS, "heap_mb": sHeap, "model_txn_per_core_s": sPerCore}
	}
	ns := len(tpccSchemes)
	rep.m["setup_s"] = value{median(setup), len(setup)}
	rep.m["heap_mb"] = value{geomean(heap), ns}
	rep.m["model_txn_per_core_s"] = value{geomean(perCore), ns}

	rep.m["txn_per_s"] = value{geomean(tps), ns}
	rep.m["setup.open_s"] = value{median(open), len(open)}
	rep.m["setup.build_s"] = value{median(build), len(build)}
	for _, t := range tpccTypes {
		rep.m["tpcc."+t+"_p50_us"] = value{geomean(byType[t]), ns}
	}
	rep.m["core.allocs_per_txn"] = value{mean(allocs), ns}
	rep.notes["rounds"] = detail
	rep.notes["setup_s"] = setup
	if !c.trace {
		return rep, nil
	}

	var body, next, overhead, tracedTPS []float64
	for _, name := range tpccSchemes {
		var sBody, sNext, sOver, sTPS []float64
		for _, r := range traced[name] {
			sBody = append(sBody, r.bodyUS)
			sNext = append(sNext, r.nextUS)
			sOver = append(sOver, r.overheadUS)
			sTPS = append(sTPS, r.tps)
		}
		rep.m["cc."+name+".tpcc_body_us"] = value{median(sBody), len(sBody)}
		body = append(body, median(sBody))
		next = append(next, median(sNext))
		overhead = append(overhead, median(sOver))
		tracedTPS = append(tracedTPS, median(sTPS))
	}
	rep.m["txn.body_us"] = value{geomean(body), ns}
	rep.m["core.next_us_per_txn"] = value{geomean(next), ns}
	rep.m["core.overhead_us_per_txn"] = value{geomean(overhead), ns}
	rep.m["trace.overhead_pct"] = value{100 * (geomean(tps)/geomean(tracedTPS) - 1), ns}

	// core.scale2x: the same database under two workers over one, NO_WAIT.
	// Informational — on two shared vCPUs it measures the neighbours as
	// much as the engine — and never gated.
	var two []float64
	for i := 0; i < 2; i++ {
		r, err := tpccRunRound(c, "NO_WAIT", 2, false)
		if err != nil {
			return nil, fmt.Errorf("NO_WAIT on 2 workers: %w", err)
		}
		account(r)
		two = append(two, r.tps)
	}
	rep.m["core.scale2x"] = value{median(two) / tps[0], len(two)}

	pointNS, scanNS, insertNS, err := runIndexProbe(c.seed)
	if err != nil {
		return nil, fmt.Errorf("index probe: %w", err)
	}
	rep.m["index.point_read_ns"] = pointNS
	rep.m["index.range_scan_ns_per_entry"] = scanNS
	rep.m["index.ordered_insert_ns"] = insertNS
	rep.attempted += probeTxns

	if err := finishTrace(c, rep, "native-tpcc", firstTrace); err != nil {
		return nil, err
	}
	return rep, nil
}

// finishTrace writes the run's kept trace set and reports its size.
func finishTrace(c *runCtx, rep *report, workload string, ts *traceSet) error {
	if ts == nil {
		return nil
	}
	spans, dropped := ts.counts()
	omitted, err := writeTrace(c.outDir, workload, ts)
	if err != nil {
		return err
	}
	rep.m["trace.spans"] = value{float64(spans), 1}
	rep.m["trace.dropped"] = value{float64(dropped), 1}
	rep.notes["trace_file_omitted_spans"] = omitted
	return nil
}

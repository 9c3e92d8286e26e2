package main

import (
	"runtime/metrics"
	"time"

	"abyss1000/abyss"
	_ "abyss1000/workloads/smallbank" // registers "smallbank"
)

// observedWorkload wraps a real workload so the benchmark can see, from
// outside the engine, when each worker asks for its next transaction and
// how long each execution attempt of a transaction body takes. It has two
// weights:
//
//   - count (rec == nil): one clock read per transaction, in Next, kept
//     only for the warm'th and the latest call. That is all a measured
//     round needs: transactions drawn over the time they took.
//   - trace (rec != nil): keeps the time of every Next call, and times
//     Next itself and every Txn.Run attempt as gen.next / txn.body spans.
//     One worker's transactions run back to back, so the gap between two
//     Next calls is that transaction's whole time — retries, commit and
//     the engine's bookkeeping included. Traced rounds never feed an
//     end-to-end number.
//
// It can also bound a run by work instead of time: with limit set, the
// worker whose limit'th Next call arrives interrupts the run, and the heap
// allocation counter is read at its warm'th and limit'th call, so that
// allocations per transaction exclude what starting a run allocates.
type observedWorkload struct {
	inner   abyss.Workload
	typer   abyss.TxnTyper // nil when inner declares no transaction types
	epoch   time.Time
	workers []workerObs // by Proc.ID

	warm, limit int    // in Next calls per worker; limit 0 never interrupts
	interrupt   func() // DB.Interrupt of the database under measurement
}

type workerObs struct {
	n            int     // Next calls so far
	tWarm, tLast int64   // ns since epoch of the warm'th and of the latest Next call
	stamps       []int64 // ns since epoch of every Next call; nil unless keepStamps
	rec          *recorder
	txn          observedTxn // the one wrapper this worker hands out, reused
	seq          uint64

	allocsAtWarm, allocsAtLimit uint64

	_ [64]byte // workers write here on every transaction: no false sharing
}

// rate is the worker's transactions per second between its warm'th and
// its latest Next call.
func (w *workerObs) rate(warm int) float64 {
	if w.n <= warm || w.tLast <= w.tWarm {
		return 0
	}
	return float64(w.n-warm) / (float64(w.tLast-w.tWarm) / 1e9)
}

// allocObjects reads the runtime's count of heap objects allocated so far
// without stopping the world.
func allocObjects() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// stampCap preallocates room for the Next stamps of one round per worker
// (several times what a round produces today; append grows it if not).
const stampCap = 1 << 18

// observe wraps inner for workers workers. keepStamps keeps the time of
// every Next call (the index probe); a trace set implies it.
func observe(inner abyss.Workload, workers int, epoch time.Time, ts *traceSet, keepStamps bool) *observedWorkload {
	o := &observedWorkload{inner: inner, epoch: epoch, workers: make([]workerObs, workers)}
	o.typer, _ = inner.(abyss.TxnTyper)
	for i := range o.workers {
		w := &o.workers[i]
		if keepStamps || ts != nil {
			w.stamps = make([]int64, 0, stampCap)
		}
		if ts != nil {
			w.rec = ts.newRecorder(workerSpanCap)
			w.txn.w = w
			w.txn.epoch = epoch
		}
	}
	return o
}

// Next implements abyss.Workload.
func (o *observedWorkload) Next(p abyss.Proc) abyss.Txn {
	w := &o.workers[p.ID()]
	t0 := int64(time.Since(o.epoch))
	w.n++
	w.tLast = t0
	if w.stamps != nil {
		w.stamps = append(w.stamps, t0)
	}
	switch w.n {
	case o.warm:
		w.tWarm = t0
		w.allocsAtWarm = allocObjects()
	case o.limit:
		w.allocsAtLimit = allocObjects()
		o.interrupt()
	}
	t := o.inner.Next(p)
	if w.rec == nil {
		return t
	}
	w.seq++
	w.rec.add(spanNext, 0, w.seq, t0, int64(time.Since(o.epoch)))
	w.txn.inner = t
	return &w.txn
}

// TxnTypes implements abyss.TxnTyper.
func (o *observedWorkload) TxnTypes() []string {
	if o.typer == nil {
		return nil
	}
	return o.typer.TxnTypes()
}

// TxnTypeOf implements abyss.TxnTyper.
func (o *observedWorkload) TxnTypeOf(t abyss.Txn) int {
	if o.typer == nil {
		return -1
	}
	if ot, ok := t.(*observedTxn); ok {
		t = ot.inner
	}
	return o.typer.TxnTypeOf(t)
}

// observedTxn times every execution attempt of the transaction it wraps.
type observedTxn struct {
	inner abyss.Txn
	w     *workerObs
	epoch time.Time
}

// Run implements abyss.Txn.
func (t *observedTxn) Run(tx *abyss.TxnCtx) error {
	t0 := int64(time.Since(t.epoch))
	err := t.inner.Run(tx)
	t.w.rec.add(spanBody, 0, t.w.seq, t0, int64(time.Since(t.epoch)))
	return err
}

// Partitions implements abyss.Txn.
func (t *observedTxn) Partitions() []int { return t.inner.Partitions() }

var (
	_ abyss.Workload = (*observedWorkload)(nil)
	_ abyss.TxnTyper = (*observedWorkload)(nil)
)

// serveWorkload is the registry name serve.New builds the serve workloads'
// database from: SmallBank, built by its own registered Build, with the
// harness told which *abyss.DB serve.New opened (the server keeps it
// private) and given the chance to wrap the workload for a traced round.
const serveWorkload = "benchmark.smallbank"

// serveBuildHook is set by the harness immediately before serve.New and
// called from inside it, on the same goroutine; rounds run one at a time.
var serveBuildHook func(db *abyss.DB, wl abyss.Workload, buildStart, buildEnd time.Time) abyss.Workload

func init() {
	var inner abyss.WorkloadInfo
	for _, info := range abyss.WorkloadInfos() {
		if info.Name == "smallbank" {
			inner = info
		}
	}
	if inner.Build == nil {
		panic("benchmark: workloads/smallbank did not register itself")
	}
	abyss.MustRegisterWorkload(abyss.WorkloadInfo{
		Name:      serveWorkload,
		Desc:      "SmallBank as the benchmark serves it (harness sees the DB; traced rounds wrap the workload)",
		Extension: true,
		Defaults:  inner.Defaults,
		Build: func(db *abyss.DB, p abyss.WorkloadParams) (abyss.Workload, error) {
			start := time.Now()
			wl, err := inner.Build(db, p)
			if err != nil || serveBuildHook == nil {
				return wl, err
			}
			return serveBuildHook(db, wl, start, time.Now()), nil
		},
	})
}

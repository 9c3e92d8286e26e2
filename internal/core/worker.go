package core

import (
	"abyss1000/internal/costs"
	"abyss1000/internal/mem"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/wal"
)

// Worker is one worker thread pinned to one core (§3.2: "the number of
// worker threads equal to the number of cores").
type Worker struct {
	P      rt.Proc
	DB     *DB
	Scheme Scheme
	Ctx    TxnCtx
	Count  stats.Counters

	// Lat is the commit-latency histogram over the measurement window
	// (first-attempt start to commit, so restarts and backoff count; in
	// open-loop runs the origin is the arrival time, so queueing delay
	// counts too).
	Lat stats.Histogram

	// QDepth is the admission-queue-depth histogram, recorded at every
	// arrival ingested inside the measurement window. Always empty in
	// closed-loop runs.
	QDepth stats.Histogram

	// Overload knobs copied from Config by Run: the per-transaction
	// deadline and retry budget enforced by runTxn, and the cap for
	// exponential backoff growth. All zero in legacy configurations,
	// where runTxn behaves exactly as before.
	deadline   uint64
	retryLimit int
	backoffCap uint64

	// warmed records that the run loop has passed the warmup boundary
	// and reset the statistics (see atBoundary).
	warmed bool

	// typer/perTxn hold the per-transaction-type attribution when the
	// bound workload implements TxnTyper (Names stay empty here; Run
	// fills them when merging workers into the Result).
	typer  TxnTyper
	perTxn []TxnStats

	// smp/scur/spend are the interval-sampling state: spend accumulates
	// the current interval scur privately and is flushed to smp when the
	// worker's clock crosses an interval boundary.
	smp   *sampler
	scur  int64
	spend intervalAgg

	// WAL state: reusable commit-record scratch (walCommit's slices and
	// walBuf grow once and are reused, keeping the logging path
	// allocation-free in steady state), the LSN of the current
	// transaction's record, and whether the scheme is timestamp-ordered
	// (decides the record's replay version).
	walCommit wal.Commit
	walBuf    []byte
	walLSN    uint64
	tsOrdered bool
}

// BindWorkload attaches per-transaction-type attribution to the worker
// when wl implements TxnTyper. The engine's Run binds automatically;
// hand-built workers (scheme tests, benchmarks) call it themselves when
// they want Lat and the per-type counters populated.
func (w *Worker) BindWorkload(wl Workload) {
	if t, ok := wl.(TxnTyper); ok {
		w.typer = t
		w.perTxn = make([]TxnStats, len(t.TxnTypes()))
	}
}

// ExecOnce runs a single attempt of txn — Begin, body, Commit (applying
// staged inserts) — and returns ErrAbort without retrying, rolling the
// transaction back first. It gives tests and external drivers per-attempt
// control that the engine's retry loop hides. Outcomes are recorded into
// the worker's latency histogram and per-type counters (no measurement
// window applies outside Run).
func (w *Worker) ExecOnce(txn Txn) error {
	start := w.P.Now()
	w.Ctx.reset()
	w.Ctx.Txn = txn
	err := w.attempt(txn)
	if err == nil {
		w.observeCommit(txn, w.P.Now(), start)
		return nil
	}
	w.Scheme.Abort(&w.Ctx)
	if err == ErrUserAbort {
		// Program-logic rollback: completed work, like the engine's loop.
		w.observeCommit(txn, w.P.Now(), start)
	} else {
		w.observeAbort(txn, w.P.Now())
	}
	return err
}

// attempt is the one attempt body ExecOnce and the retry loop share:
// Begin, the transaction's logic, Commit and, once that succeeded, the
// commit record, insert publication, durability wait and capture record.
// The caller has reset the context; on error it rolls back.
func (w *Worker) attempt(txn Txn) error {
	w.Scheme.Begin(&w.Ctx)
	err := txn.Run(&w.Ctx)
	if err == nil {
		err = w.Scheme.Commit(&w.Ctx)
	}
	if err == nil {
		w.Ctx.LogCommit()
		w.Ctx.applyInserts()
		w.finishDurable()
		w.Ctx.captureFinish()
	}
	return err
}

// observeCommit records a completed transaction (commit or program-logic
// rollback) at time now for a transaction whose first attempt began at
// start. Accounting only: no simulated time is billed.
func (w *Worker) observeCommit(txn Txn, now, start uint64) {
	lat := now - start
	w.Lat.Record(lat)
	if w.typer != nil {
		if k := w.typer.TxnTypeOf(txn); k >= 0 && k < len(w.perTxn) {
			w.perTxn[k].Commits++
			w.perTxn[k].Latency.Record(lat)
		}
	}
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.commits++
		w.spend.lat.Record(lat)
	}
}

// observeAbort records a concurrency-control abort at time now.
func (w *Worker) observeAbort(txn Txn, now uint64) {
	if w.typer != nil {
		if k := w.typer.TxnTypeOf(txn); k >= 0 && k < len(w.perTxn) {
			w.perTxn[k].Aborts++
		}
	}
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.aborts++
	}
}

// observeShed records an arrival rejected by admission control at time
// now (discovery time, which keeps per-worker sampling monotone).
func (w *Worker) observeShed(now uint64) {
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.shed++
	}
}

// observeDeadlined records a transaction abandoned past its deadline or
// retry budget at time now.
func (w *Worker) observeDeadlined(now uint64) {
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.deadlined++
	}
}

// observeDepth records the admission-queue depth seen by an arrival.
func (w *Worker) observeDepth(now uint64, depth int) {
	w.QDepth.Record(uint64(depth))
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.qdepth.Record(uint64(depth))
	}
}

// sampleRoll flushes the pending interval counts when now has crossed
// into a later interval than the one being accumulated.
func (w *Worker) sampleRoll(now uint64) {
	if idx := w.smp.intervalOf(now); idx != w.scur {
		w.smp.advance(w.P.ID(), w.scur, idx, &w.spend)
		w.scur = idx
	}
}

// finishSampling flushes the final pending interval; called when the
// worker's run loop exits.
func (w *Worker) finishSampling() {
	if w.smp != nil {
		w.smp.finish(w.P.ID(), w.scur, &w.spend)
	}
}

// resetWindow discards observations accumulated before the measurement
// window opens (the warmup reset).
func (w *Worker) resetWindow() {
	w.Count = stats.Counters{}
	w.Lat.Reset()
	w.QDepth.Reset()
	for i := range w.perTxn {
		w.perTxn[i] = TxnStats{}
	}
	w.spend = intervalAgg{}
}

// NewWorker constructs a worker bound to proc p. The engine's Run builds
// its own; scheme unit tests and external harnesses that drive
// transactions themselves call it directly.
func NewWorker(p rt.Proc, db *DB, scheme Scheme) *Worker {
	w := &Worker{P: p, DB: db, Scheme: scheme}
	var alloc mem.Allocator
	if db.GlobalAlloc != nil {
		alloc = db.GlobalAlloc.Bound()
	} else {
		alloc = mem.NewArena(16 * 1024)
	}
	w.Ctx = TxnCtx{P: p, W: w, DB: db, Alloc: alloc}
	w.Ctx.State = scheme.NewTxnState(w)
	_, w.tsOrdered = scheme.(TSOrderedScheme)
	return w
}

// finishDurable blocks until the committed transaction's log record is
// durable — the group-commit acknowledgement point. Only the native
// runtime's async writer ever waits; the wait time is billed to the LOG
// component. Accounting-only (sync) writers are durable at append.
func (w *Worker) finishDurable() {
	lw := w.DB.Wal
	if lw == nil || w.walLSN == 0 {
		return
	}
	lsn := w.walLSN
	w.walLSN = 0
	if !lw.Async() {
		return
	}
	t0 := w.P.Now()
	lw.WaitDurable(lsn)
	w.P.Stats().Add(stats.Log, w.P.Now()-t0)
}

// atBoundary is the transaction-boundary preamble shared by the three
// worker bodies (closed loop, open loop, remote dispatch): it reports
// false once the window has ended or the run's stop flag is set, resets
// the statistics the first time the clock passes warmEnd, and serves
// injected fault stalls — billed to Idle, with the checks re-run after
// each. In legacy configurations stop and Fault are nil and only
// nil-checked, so the schedule is byte-identical to the pre-overload
// engine (the golden signature pins that).
func (w *Worker) atBoundary(cfg *Config, warmEnd, end uint64) (now uint64, ok bool) {
	p := w.P
	for {
		now = p.Now()
		if now >= end || (cfg.stop != nil && cfg.stop.Load()) {
			return now, false
		}
		if !w.warmed && now >= warmEnd {
			p.Stats().Reset()
			w.resetWindow()
			w.warmed = true
		}
		if cfg.Fault == nil {
			return now, true
		}
		d := cfg.Fault.Delay(p.ID(), now)
		if d == 0 {
			return now, true
		}
		p.Tick(stats.Idle, d)
	}
}

// serveClosed is the paper's closed-loop worker body: draw a transaction,
// run it to completion, draw the next.
func (w *Worker) serveClosed(wl Workload, cfg Config, warmEnd, end uint64) {
	p := w.P
	for {
		if _, ok := w.atBoundary(&cfg, warmEnd, end); !ok {
			break
		}
		txn := wl.Next(p)
		w.runTxn(txn, p.Now(), warmEnd, end, cfg.AbortBackoff)
	}
}

// runTxn executes txn to commit or user-abort, restarting on CC aborts,
// and updates counters for work completed inside [warmEnd, end). start is
// the latency origin: the first-attempt start in the closed loop, the
// arrival time in the open loop. When the worker has a deadline, a
// transaction that has not committed by start+deadline is abandoned with
// ErrDeadline instead of restarted (a commit already in flight still
// counts — the deadline gates retries, not completion); a retry budget
// abandons the same way after retryLimit failed attempts. Both outcomes
// count in Deadlined, separately from CC aborts.
func (w *Worker) runTxn(txn Txn, start, warmEnd, end uint64, backoff uint64) error {
	p := w.P
	attempt := 0
	for {
		now := p.Now()
		if now >= end {
			return nil
		}
		if w.deadline > 0 && now >= start+w.deadline {
			if now >= warmEnd {
				w.Count.Deadlined++
				w.observeDeadlined(now)
			}
			return ErrDeadline
		}
		p.Stats().BeginAttempt()
		w.Ctx.reset()
		w.Ctx.Txn = txn
		p.Tick(stats.Useful, costs.TxnSetup)
		err := w.attempt(txn)

		now = p.Now()
		inWindow := now >= warmEnd && now < end
		switch err {
		case nil:
			p.Stats().CommitAttempt()
			if inWindow {
				w.Count.Commits++
				w.Count.Tuples += w.Ctx.tuples
				w.observeCommit(txn, now, start)
			}
			return nil
		case ErrUserAbort:
			// Program-logic rollback: completed work per TPC-C.
			w.Scheme.Abort(&w.Ctx)
			p.Tick(stats.Abort, costs.AbortFixed)
			p.Stats().CommitAttempt()
			if inWindow {
				w.Count.Commits++
				w.Count.Tuples += w.Ctx.tuples
				w.observeCommit(txn, now, start)
			}
			return ErrUserAbort
		case ErrAbort:
			w.Scheme.Abort(&w.Ctx)
			p.Tick(stats.Abort, costs.AbortFixed)
			p.Stats().AbortAttempt()
			if inWindow {
				w.Count.Aborts++
				w.observeAbort(txn, now)
			}
			attempt++
			if w.retryLimit > 0 && attempt >= w.retryLimit {
				if inWindow {
					w.Count.Deadlined++
					w.observeDeadlined(now)
				}
				return ErrDeadline
			}
			if backoff > 0 {
				// With no cap the mean stays backoff for every attempt,
				// so this draw is identical to the historical fixed-
				// backoff loop and the golden schedule is preserved.
				mean := backoff
				if w.backoffCap > 0 {
					mean = backoffMean(backoff, w.backoffCap, attempt)
				}
				p.Backoff(stats.Abort, uint64(p.Rand().Int63n(int64(2*mean)))+1)
			}
			// Restart the same transaction.
		default:
			panic("core: transaction returned unexpected error: " + err.Error())
		}
	}
}

package core

import (
	"time"

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

	// causes breaks Count.Aborts down by AbortCause.
	causes AbortCauses

	// Lat is the commit-latency histogram over the measurement window,
	// from the work's origin to commit: restarts and backoff count, and
	// for open-loop and served work, whose origin is the arrival time, so
	// does queueing delay.
	Lat stats.Histogram

	// QDepth is the admission-queue-depth histogram, recorded at every
	// arrival ingested inside the measurement window. Only the open loop
	// records it.
	QDepth stats.Histogram

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

// ExecOnce runs a single attempt of txn — Begin, body, Commit (publishing
// its inserts) — and returns ErrAbort without retrying, rolling the
// transaction back first. It gives tests and external drivers per-attempt
// control that the engine's retry loop hides. Outcomes are recorded into
// the worker's Count, latency histogram and per-type counters (no
// measurement window applies outside Run).
func (w *Worker) ExecOnce(txn Txn) error {
	start := w.P.Now()
	w.Ctx.reset()
	w.Ctx.Txn = txn
	err := w.attempt(txn)
	if err != nil {
		w.rollback()
	}
	if err == nil || err == ErrUserAbort {
		// A program-logic rollback is completed work, as in the engine's loop.
		w.observeCommit(txn, w.P.Now(), start)
	} else {
		w.observeAbort(txn, w.P.Now())
	}
	return err
}

// attempt is the one attempt body ExecOnce and the retry loop share:
// Begin, the transaction's logic, Commit and, once that succeeded, the
// durability wait and capture record. Commit has run LogCommit (commit
// record, insert publication) at the scheme's commit point. The caller has
// reset the context; on error it rolls back.
func (w *Worker) attempt(txn Txn) error {
	w.Scheme.Begin(&w.Ctx)
	err := txn.Run(&w.Ctx)
	if err == nil {
		err = w.Scheme.Commit(&w.Ctx)
	}
	if err == nil {
		w.finishDurable()
		w.Ctx.captureFinish()
	}
	return err
}

// rollback undoes a failed attempt: the scheme's Abort, then the rows the
// attempt reserved for its inserts.
func (w *Worker) rollback() {
	w.Scheme.Abort(&w.Ctx)
	w.Ctx.dropInserts()
}

// observeCommit counts a completed transaction (commit or program-logic
// rollback) at time now for a transaction whose latency runs from start.
// Accounting only: no simulated time is billed.
func (w *Worker) observeCommit(txn Txn, now, start uint64) {
	w.Count.Commits++
	w.Count.Tuples += w.Ctx.tuples
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

// observeAbort counts a concurrency-control abort at time now, by the
// cause the scheme recorded.
func (w *Worker) observeAbort(txn Txn, now uint64) {
	c := w.Ctx.cause
	w.Count.Aborts++
	w.causes[c]++
	if w.typer != nil {
		if k := w.typer.TxnTypeOf(txn); k >= 0 && k < len(w.perTxn) {
			w.perTxn[k].Aborts++
			w.perTxn[k].AbortCauses[c]++
		}
	}
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.aborts++
	}
}

// observeShed counts an arrival rejected by admission control at time
// now (discovery time, which keeps per-worker sampling monotone).
func (w *Worker) observeShed(now uint64) {
	w.Count.Shed++
	if w.smp != nil {
		w.sampleRoll(now)
		w.spend.shed++
	}
}

// observeDeadlined counts a transaction abandoned past its deadline or
// retry budget at time now.
func (w *Worker) observeDeadlined(now uint64) {
	w.Count.Deadlined++
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
// component. Accounting-only (sync) writers are durable at append, so
// WaitDurable returns at once and nothing is billed.
func (w *Worker) finishDurable() {
	lw := w.DB.Wal
	if lw == nil || w.walLSN == 0 {
		return
	}
	lsn := w.walLSN
	w.walLSN = 0
	t0 := w.P.Now()
	lw.WaitDurable(lsn)
	w.P.Stats().Add(stats.Log, w.P.Now()-t0)
}

// work is one transaction a source hands the worker loop: the
// transaction, its latency origin, its absolute deadline (zero: origin +
// Config.Deadline, or none) and, for a served request, the callback that
// receives its outcome.
type work struct {
	txn      Txn
	origin   uint64
	deadline uint64
	done     func(elapsed time.Duration, err error)
}

// A source feeds one worker's loop. next is called at a transaction
// boundary at time now and returns the next work, a zero work when it has
// none yet (it may have parked; the loop re-checks the boundary), or
// ok == false once it is drained. close is called once, when the loop
// exits at time now.
type source interface {
	next(now uint64) (wk work, ok bool)
	close(now uint64)
}

// closedLoop is the paper's source: the next transaction is drawn the
// moment the previous one finishes, with the draw's end as its origin.
type closedLoop struct {
	p  rt.Proc
	wl Workload
}

func (c closedLoop) next(uint64) (work, bool) {
	txn := c.wl.Next(c.p)
	return work{txn: txn, origin: c.p.Now()}, true
}

func (closedLoop) close(uint64) {}

// loop is the worker loop (§3.2: run one transaction to completion, then
// take the next). At each transaction boundary it exits once the window
// has ended or the stop flag is set, discards what was observed before
// warmEnd when the clock first passes it, and serves injected fault
// stalls (billed to Idle, re-checking after each); then it runs the next
// work from src and hands its outcome and latency to the work's done. With
// stop and Fault nil both are only nil-checked, so the closed loop keeps
// the paper's schedule (the golden signature pins that). On exit it
// closes src and flushes the last sampling interval.
func (w *Worker) loop(src source, cfg *Config, warmEnd, end uint64) {
	p := w.P
	warmed := false
	now := p.Now()
	for ; now < end && (cfg.stop == nil || !cfg.stop.Load()); now = p.Now() {
		if !warmed && now >= warmEnd {
			p.Stats().Reset()
			w.Count = stats.Counters{}
			w.causes = AbortCauses{}
			w.Lat.Reset()
			w.QDepth.Reset()
			clear(w.perTxn)
			w.spend = intervalAgg{}
			warmed = true
		}
		if cfg.Fault != nil {
			if d := cfg.Fault.Delay(p.ID(), now); d > 0 {
				p.Tick(stats.Idle, d)
				continue
			}
		}
		wk, ok := src.next(now)
		if !ok {
			break
		}
		if wk.txn == nil {
			continue
		}
		if wk.deadline == 0 && cfg.Deadline > 0 {
			wk.deadline = wk.origin + cfg.Deadline
		}
		err := w.runTxn(&wk, cfg, warmEnd, end)
		if wk.done != nil {
			wk.done(time.Duration(p.Now()-wk.origin), err)
		}
	}
	src.close(now)
	if w.smp != nil {
		w.smp.finish(p.ID(), w.scur, &w.spend)
	}
}

// runTxn runs wk's transaction to commit or user-abort, restarting on CC
// aborts, and counts what completes inside [warmEnd, end), with latency
// from wk.origin. Past wk.deadline — before the first attempt, for a
// request that expired while queued — or after cfg.RetryLimit failed
// attempts it abandons the transaction with ErrDeadline, counted in
// Deadlined apart from CC aborts. A commit in flight at the deadline
// still counts: the deadline gates retries, not completion.
func (w *Worker) runTxn(wk *work, cfg *Config, warmEnd, end uint64) error {
	p := w.P
	for attempt := 1; ; attempt++ {
		now := p.Now()
		if now >= end {
			return nil
		}
		if wk.deadline > 0 && now >= wk.deadline {
			if now >= warmEnd {
				w.observeDeadlined(now)
			}
			return ErrDeadline
		}
		p.Stats().BeginAttempt()
		w.Ctx.reset()
		w.Ctx.Txn = wk.txn
		p.Tick(stats.Useful, costs.TxnSetup)
		err := w.attempt(wk.txn)

		now = p.Now()
		inWindow := now >= warmEnd && now < end
		if err != nil {
			w.rollback()
			p.Tick(stats.Abort, costs.AbortFixed)
		}
		switch err {
		case nil, ErrUserAbort:
			// A program-logic rollback is completed work, per TPC-C.
			p.Stats().CommitAttempt()
			if inWindow {
				w.observeCommit(wk.txn, now, wk.origin)
			}
			return err
		case ErrAbort:
			p.Stats().AbortAttempt()
			if inWindow {
				w.observeAbort(wk.txn, now)
			}
			if cfg.RetryLimit > 0 && attempt >= cfg.RetryLimit {
				if inWindow {
					w.observeDeadlined(now)
				}
				return ErrDeadline
			}
			if mean := backoffMean(cfg.AbortBackoff, cfg.BackoffCap, attempt); mean > 0 {
				p.Backoff(stats.Abort, uint64(p.Rand().Int63n(int64(2*mean)))+1)
			}
		default:
			panic("core: transaction returned unexpected error: " + err.Error())
		}
	}
}

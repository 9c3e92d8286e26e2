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

	// Tally counts the worker's outcomes: inside Run, those of sampling
	// interval scur only, drained into the run's sampler smp as the
	// worker's clock leaves it. Run counts only what completes inside the
	// measurement window, so a transaction that straddles the end of
	// warm-up lands in the first interval. A hand-built worker, with no
	// sampler, accumulates here everything it runs. warmed is set at the
	// worker's first transaction boundary past warm-up, where the
	// breakdown is reset.
	Tally  Tally
	smp    *sampler
	scur   int64
	warmed bool

	// typer/perTxn hold the per-transaction-type attribution when the
	// bound workload implements TxnTyper (Names stay empty here; the
	// sampler's rows carry them).
	typer  TxnTyper
	perTxn []TxnStats

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
// they want the per-type rows populated.
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
// the worker's Tally and per-type rows (no measurement window applies
// outside Run).
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
	lat := now - start
	t := w.tally(now)
	t.Commits++
	t.Tuples += w.Ctx.tuples
	t.Latency.Record(lat)
	if row := w.row(txn); row != nil {
		row.Commits++
		row.Latency.Record(lat)
	}
}

// observeAbort counts a concurrency-control abort at time now, by the
// cause the scheme recorded.
func (w *Worker) observeAbort(txn Txn, now uint64) {
	c := w.Ctx.cause
	t := w.tally(now)
	t.Aborts++
	t.AbortCauses[c]++
	if row := w.row(txn); row != nil {
		row.Aborts++
		row.AbortCauses[c]++
	}
}

// row is txn's per-type row, or nil when the workload names no types or
// not this one.
func (w *Worker) row(txn Txn) *TxnStats {
	if w.typer != nil {
		if k := w.typer.TxnTypeOf(txn); k >= 0 && k < len(w.perTxn) {
			return &w.perTxn[k]
		}
	}
	return nil
}

// tally returns the tally that outcomes discovered at time now belong in,
// first flushing the current one to the run's sampler when now has crossed
// into a later interval.
func (w *Worker) tally(now uint64) *Tally {
	if w.smp != nil {
		if idx := w.smp.intervalOf(now); idx != w.scur {
			w.smp.advance(w, idx)
		}
	}
	return &w.Tally
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
// has ended or the stop flag is set, resets the breakdown when the clock
// first passes warmEnd, and serves injected fault
// stalls (billed to Idle, re-checking after each); then it runs the next
// work from src and hands its outcome and latency to the work's done. With
// stop and Fault nil both are only nil-checked, so the closed loop keeps
// the paper's schedule (the golden signature pins that). On exit it
// closes src and hands the last sampling interval, the per-type rows and
// the breakdown to the run's sampler.
func (w *Worker) loop(src source, cfg *Config, warmEnd, end uint64) {
	p := w.P
	now := p.Now()
	for ; now < end && (cfg.stop == nil || !cfg.stop.Load()); now = p.Now() {
		if !w.warmed && now >= warmEnd {
			p.Stats().Reset()
			w.warmed = true
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
	w.smp.finish(w)
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
				w.tally(now).Deadlined++
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
					w.tally(now).Deadlined++
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

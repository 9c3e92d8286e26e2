// Remote request dispatch: the engine end of the serving tier.
//
// The paper's loops generate their own work — closed-loop workers draw
// the next transaction the moment the previous one finishes, open-loop
// workers synthesize arrivals from a seeded stochastic process. A
// network front door inverts that: work originates outside the engine,
// one request at a time, and each request wants an answer. Config.WithSource
// is that inversion point. When set, every worker turns into a dispatch
// loop pulling Requests from the source, executing them through the
// same runTxn retry machinery as the synthetic loops (so deadlines,
// retry budgets and capped backoff behave identically), and reporting
// each outcome through the request's completion callback.
//
// Like the overload tier, all of this is gated: without a source none of
// this code runs and the closed-loop schedule stays byte-identical to
// previous releases.
package core

import (
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

// Request is one externally submitted transaction awaiting execution.
type Request struct {
	// Prepare materializes the transaction on the serving worker's
	// goroutine (so per-worker instance reuse and RNG determinism are
	// preserved). A nil Prepare means "draw from the run's workload" —
	// the zero-allocation fast path for anonymous invocations. A
	// Prepare error rejects the request: Done receives the error and
	// nothing is executed or counted.
	Prepare func(p rt.Proc) (Txn, error)

	// Arrival is the request's arrival timestamp on the runtime clock —
	// the latency origin, so time spent queued counts against the
	// commit latency exactly as in the open-loop tier.
	Arrival uint64

	// Deadline is the absolute cycle past which the request is
	// abandoned: expired-in-queue requests complete as ErrDeadline
	// without executing, and admitted ones inherit the remaining budget
	// as their runTxn deadline. Zero falls back to Arrival +
	// Config.Deadline (none when that is zero too).
	Deadline uint64

	// Done, when non-nil, is invoked exactly once on the worker
	// goroutine with the outcome: nil for a commit, ErrUserAbort for a
	// program-logic rollback (completed work), ErrDeadline for an
	// abandoned transaction, or the Prepare error for a rejection. It
	// must return promptly — it runs inside the serving loop.
	Done func(err error)
}

// finish reports the request's outcome to its submitter.
func (r *Request) finish(err error) {
	if r.Done != nil {
		r.Done(err)
	}
}

// RequestSource feeds workers externally submitted requests. Next blocks
// until a request is available or the source is drained; after it
// reports ok == false the worker exits its serving loop. Next is called
// concurrently from every worker goroutine and must be safe for that.
// Time spent blocked in Next is billed to the Idle component.
type RequestSource interface {
	Next(p rt.Proc) (req Request, ok bool)
}

// serveRemote is the request-dispatch worker body: pull a request, drop
// it if its deadline expired while queued, otherwise materialize the
// transaction and run it through the standard retry loop with the
// arrival time as the latency origin. The blocking pull replaces the
// open-loop tier's synthetic arrival generator; admission control and
// shedding live upstream in the session that owns the source.
func (w *Worker) serveRemote(wl Workload, cfg Config, warmEnd, end uint64) {
	p := w.P
	for {
		now, ok := w.atBoundary(&cfg, warmEnd, end)
		if !ok {
			break
		}
		req, ok := cfg.source.Next(p)
		waited := p.Now()
		if d := waited - now; d > 0 {
			p.Tick(stats.Idle, d)
		}
		if !ok {
			break
		}
		now = waited
		if req.Arrival > now {
			// Submitters stamp arrivals from their own reading of the
			// runtime clock; clamp the sub-microsecond skew so latency
			// arithmetic stays non-negative.
			req.Arrival = now
		}
		if req.Deadline == 0 && cfg.Deadline > 0 {
			req.Deadline = req.Arrival + cfg.Deadline
		}
		inWin := now >= warmEnd && now < end
		if req.Deadline > 0 && now >= req.Deadline {
			// Expired while queued: abandon without executing, exactly
			// like an open-loop arrival whose deadline passes in the
			// admission queue.
			if inWin {
				w.Count.Deadlined++
				w.observeDeadlined(now)
			}
			req.finish(ErrDeadline)
			continue
		}
		w.deadline = 0
		if req.Deadline > 0 {
			// Not expired, so the deadline lies past now >= Arrival.
			w.deadline = req.Deadline - req.Arrival
		}
		var txn Txn
		if req.Prepare == nil {
			txn = wl.Next(p)
		} else {
			var err error
			txn, err = req.Prepare(p)
			if err != nil {
				req.finish(err)
				continue
			}
		}
		req.finish(w.runTxn(txn, req.Arrival, warmEnd, end, cfg.AbortBackoff))
	}
}

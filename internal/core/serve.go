// Remote request dispatch: the engine end of the serving tier.
//
// The closed and open loops generate their own work; a network front
// door inverts that: work originates outside the engine, one request at
// a time, and each request wants an answer. Config.WithSource is that
// inversion point. It makes the worker loop's source a dispatch source
// that pulls Requests from the RequestSource, and the loop runs each one
// like any other work — one deadline rule, retry budget and backoff —
// then reports the outcome through the request's Done.
package core

import (
	"time"

	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

// Request is one externally submitted transaction awaiting execution.
type Request struct {
	// Prepare materializes the transaction on the serving worker's
	// goroutine (so per-worker instance reuse and RNG determinism are
	// preserved). A nil Prepare means "draw from the run's workload" —
	// the zero-allocation fast path for anonymous invocations.
	Prepare func(p rt.Proc) Txn

	// Arrival is the request's arrival timestamp on the runtime clock —
	// the latency origin, so time spent queued counts against the
	// commit latency exactly as in the open-loop tier.
	Arrival uint64

	// Deadline is the absolute cycle past which the request is
	// abandoned as ErrDeadline: between attempts, or before the first if
	// it expired while queued. Zero falls back to Arrival +
	// Config.Deadline (none when that is zero too).
	Deadline uint64

	// Done, when non-nil, is invoked exactly once on the worker
	// goroutine with the outcome: nil for a commit, ErrUserAbort for a
	// program-logic rollback (completed work), ErrDeadline for an
	// abandoned transaction; elapsed runs from Arrival on the runtime
	// clock. Done must never block — it runs inside the worker loop.
	Done func(elapsed time.Duration, err error)
}

// RequestSource feeds workers externally submitted requests. Next blocks
// until a request is available or the source is drained; after it
// reports ok == false the worker exits its loop. Next is called
// concurrently from every worker goroutine and must be safe for that.
// Time spent blocked in Next is billed to the Idle component.
type RequestSource interface {
	Next(p rt.Proc) (req Request, ok bool)
}

// served is the dispatch source: a blocking pull from the RequestSource
// replaces the open loop's synthetic arrivals, and admission control and
// shedding live upstream in the session that owns it.
type served struct {
	p   rt.Proc
	wl  Workload
	src RequestSource
}

func (s served) next(now uint64) (work, bool) {
	p := s.p
	req, ok := s.src.Next(p)
	waited := p.Now()
	if d := waited - now; d > 0 {
		p.Tick(stats.Idle, d)
	}
	if !ok {
		return work{}, false
	}
	// Submitters stamp arrivals from their own reading of the runtime
	// clock; clamp the skew so latency arithmetic stays non-negative.
	req.Arrival = min(req.Arrival, waited)
	var txn Txn
	if req.Prepare == nil {
		txn = s.wl.Next(p)
	} else {
		txn = req.Prepare(p)
	}
	return work{txn: txn, origin: req.Arrival, deadline: req.Deadline, done: req.Done}, true
}

func (served) close(uint64) {}

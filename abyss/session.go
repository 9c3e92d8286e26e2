package abyss

// Session: the stored-procedure invocation surface for remote dispatch.
//
// Run measures a workload the engine generates for itself; a Session
// inverts the flow for serving — external callers submit invocations one
// at a time and each gets an answer. Under the hood a Session is still
// one measurement on the DB's native runtime: DB.Serve starts a Run,
// configured by the same RunConfig, whose workers pull from per-worker
// bounded admission queues (core.RequestSource), and Drain ends the
// measurement and returns the same Result a Run would have, with the
// session-side admission accounting (offered, shed, queue depths) merged
// in. Submit queues an invocation, and the serving worker calls back
// once it has finished (durably, with a log); Invoke is its blocking
// form. Outcomes are the engine's vocabulary (nil, ErrUserAbort,
// ErrDeadline) plus the session's own ErrShed and ErrSessionClosed. The
// serve/ package layers the network protocols on exactly this surface.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/internal/core"
)

// Serving errors. ErrShed and ErrSessionClosed are the admission-control
// outcomes a remote front end maps onto wire responses (429/SHED and
// draining refusals respectively).
var (
	// ErrShed reports an invocation rejected because the target worker's
	// admission queue was full. Shed invocations never execute; they
	// count in the drained Result.Shed.
	ErrShed = errors.New("abyss: invocation shed — admission queue full")

	// ErrSessionClosed reports an invocation refused because the session
	// is draining (or a queued invocation the drain overtook).
	ErrSessionClosed = errors.New("abyss: session draining — invocation refused")
)

// DefaultServeQueueDepth bounds each worker's admission queue when a
// serving run's RunConfig.QueueDepth is zero. A serving session always
// has admission control: an unbounded queue under sustained overload is
// just a slower crash.
const DefaultServeQueueDepth = 1024

// Invocation is one request submitted to a Session.
type Invocation struct {
	// Proc names one of the session's Procedures to invoke; empty draws
	// an anonymous transaction from the session's workload (the
	// paper-workload form).
	Proc string

	// Routed and Partition select H-STORE-aware routing: when Routed is
	// set, the invocation is dispatched to the worker owning partition
	// Partition (partitions map 1:1 onto workers), keeping single-
	// partition transactions on their home site. Unrouted invocations
	// are spread round-robin.
	Routed    bool
	Partition int

	// Deadline is the per-invocation deadline; zero uses the serving
	// run's RunConfig.Deadline.
	Deadline time.Duration
}

// Session is a live serving run: submit with Submit or Invoke, end the
// run with Drain. Safe for concurrent use by any number of goroutines.
type Session struct {
	db      *DB
	wl      Workload
	named   procedures     // nil when wl offers no named procedures
	procs   map[string]int // procedure name -> index for named.Instance
	workers int

	qs      []chan core.Request
	qmu     sync.RWMutex // guards qclosed + channel close
	qclosed bool
	rr      atomic.Uint64

	// adm is the session's admission accounting: Offered counts every
	// invocation that reached a queue, admitted or not, Shed those that
	// found it full, and QueueDepth the depth each admitted one saw.
	// Submit records into it under qmu's read lock, so once
	// closeQueues holds the write lock every count has landed.
	amu sync.Mutex // guards adm
	adm Tally

	epoch     time.Time // wall-clock instant of runtime cycle 0
	epochOnce sync.Once
	ready     chan struct{} // closed once epoch is known

	done      chan struct{} // closed when the underlying run has returned
	res       Result
	runErr    error
	mergeOnce sync.Once
	final     Result
}

// procedures is what a workload offers to be invoked by name: a Mix, or
// any workload that embeds one (SmallBank, TATP, chaos, TPC-C).
// Instance(p, k) is worker p's instance of Procedures()[k], its inputs
// drawn.
type procedures interface {
	Procedures() []string
	Instance(p Proc, k int) Txn
}

// sessionSource adapts the session's queues to core.RequestSource. The
// first worker to ask for work pins the epoch — the wall-clock instant
// of runtime cycle zero — so submitter-side arrival stamps and the
// workers' clocks share one base.
type sessionSource struct{ s *Session }

// Next implements core.RequestSource.
func (src sessionSource) Next(p Proc) (core.Request, bool) {
	s := src.s
	s.epochOnce.Do(func() {
		s.epoch = time.Now().Add(-time.Duration(p.Now()))
		close(s.ready)
	})
	req, ok := <-s.qs[p.ID()]
	return req, ok
}

// Serve starts a serving session: the DB's single measurement begins
// immediately, with every worker blocked on its admission queue until
// invocations arrive. Requires the native runtime — remote arrivals are
// wall-clock events, which the simulator cannot admit. A serving run
// honours cfg's QueueDepth, Deadline, RetryLimit, AbortBackoff,
// BackoffCap, Fault and Check (cycles are nanoseconds natively); it
// measures from Serve until Drain, and RunConfig.Validate rejects every
// other field. Like Run, Serve consumes the DB's one measurement; Drain
// ends it.
func (db *DB) Serve(scheme Scheme, wl Workload, cfg RunConfig) (*Session, error) {
	if db.opts.Runtime != RuntimeNative {
		return nil, fmt.Errorf("abyss: Serve needs the native runtime (Options.Runtime = RuntimeNative); the simulator has no wall clock for remote arrivals")
	}
	s := &Session{
		db:      db,
		wl:      wl,
		workers: db.Cores(),
		qs:      make([]chan core.Request, db.Cores()),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	rc := cfg.WithSource(sessionSource{s})
	if err := db.prepareRun(scheme, wl, rc); err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultServeQueueDepth
	}
	for i := range s.qs {
		s.qs[i] = make(chan core.Request, depth)
	}
	if named, ok := wl.(procedures); ok {
		s.named = named
		names := named.Procedures()
		s.procs = make(map[string]int, len(names))
		for i, name := range names {
			s.procs[name] = i
		}
	}
	go func() {
		res, err := db.runMeasured(scheme, wl, rc)
		s.res, s.runErr = res, err
		// Complete anything the workers never popped (possible only on
		// an abnormal exit — Interrupt, or an engine error), then
		// publish. A normal Drain closes the queues first and the
		// workers empty them before exiting.
		s.closeQueues()
		for _, q := range s.qs {
			for req := range q {
				if req.Done != nil {
					req.Done(0, ErrSessionClosed)
				}
			}
		}
		close(s.done)
	}()
	select {
	case <-s.ready:
		return s, nil
	case <-s.done:
		if s.runErr != nil {
			return nil, s.runErr
		}
		return nil, fmt.Errorf("abyss: serving run ended before any worker started")
	}
}

// closeQueues closes every admission queue exactly once; subsequent
// submissions are refused and workers exit after emptying their queues.
func (s *Session) closeQueues() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qclosed {
		return
	}
	s.qclosed = true
	for _, q := range s.qs {
		close(q)
	}
}

// nowCycles reads the runtime clock (nanoseconds since cycle zero).
func (s *Session) nowCycles() uint64 {
	return uint64(time.Since(s.epoch))
}

// Workers returns the number of serving workers — equivalently, the
// number of partitions an Invocation can route to.
func (s *Session) Workers() int { return s.workers }

// Procedures returns the names an Invocation.Proc may take, in the
// workload's mix order: those of a Mix, or of any workload that embeds
// one, as every built-in procedure workload does (TPC-C, SmallBank,
// TATP, chaos). It is nil when the workload has no named procedures
// (YCSB, or a custom Workload without a Mix) and only anonymous draws
// are valid.
func (s *Session) Procedures() []string {
	if s.named == nil {
		return nil
	}
	return s.named.Procedures()
}

// Counters snapshots the session-side admission accounting: Offered,
// Shed and QueueDepth; the engine's counts are the drained Result's.
func (s *Session) Counters() Tally {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.adm
}

// prepare builds the worker-side transaction constructor for inv, or
// nil for the anonymous-draw fast path.
func (s *Session) prepare(inv Invocation) (func(p Proc) Txn, error) {
	if inv.Proc == "" {
		return nil, nil
	}
	if s.named == nil {
		return nil, fmt.Errorf("abyss: workload has no named procedures (no Mix); invoke with an empty Proc")
	}
	k, ok := s.procs[inv.Proc]
	if !ok {
		return nil, fmt.Errorf("abyss: no procedure %q (have: %s)", inv.Proc, joinNames(s.named.Procedures()))
	}
	named := s.named
	return func(p Proc) Txn { return named.Instance(p, k) }, nil
}

// Submit routes one invocation into its worker's admission queue and
// returns at once. On a nil return, done is called exactly once, on the
// serving worker, when the invocation finishes: with Invoke's outcomes
// and elapsed times (a commit only once its log record is durable, when
// the DB has a write-ahead log), or with ErrSessionClosed for one an
// abnormal end of the run overtook. done runs inside the worker loop and
// must never block. A non-nil return (ErrShed, ErrSessionClosed once
// Drain has begun, a validation error) means done is never called.
func (s *Session) Submit(inv Invocation, done func(elapsed time.Duration, err error)) error {
	prepare, err := s.prepare(inv)
	if err != nil {
		return err
	}
	if inv.Routed && inv.Partition < 0 {
		return fmt.Errorf("abyss: Invocation.Partition must not be negative, got %d", inv.Partition)
	}
	if inv.Deadline < 0 {
		return fmt.Errorf("abyss: Invocation.Deadline must not be negative")
	}
	worker := int(s.rr.Add(1)-1) % s.workers
	if inv.Routed {
		worker = inv.Partition % s.workers
	}
	arrival := s.nowCycles()
	var deadline uint64 // zero: the engine applies RunConfig.Deadline
	if inv.Deadline > 0 {
		deadline = arrival + uint64(inv.Deadline)
	}
	req := core.Request{Prepare: prepare, Arrival: arrival, Deadline: deadline, Done: done}

	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.qclosed {
		return ErrSessionClosed
	}
	s.amu.Lock()
	defer s.amu.Unlock()
	s.adm.Offered++
	select {
	case s.qs[worker] <- req:
		s.adm.QueueDepth.Record(uint64(len(s.qs[worker])))
		return nil
	default:
		s.adm.Shed++
		return ErrShed
	}
}

// Invoke submits one invocation and blocks until it completes, sheds or
// is refused. An executed (or deadline-abandoned) invocation returns the
// engine's outcome — nil for a commit, ErrUserAbort or ErrDeadline —
// with elapsed, the server-side latency from submission to completion,
// including queueing, retries and backoff. ErrShed, ErrSessionClosed
// and validation errors return no elapsed time.
func (s *Session) Invoke(inv Invocation) (elapsed time.Duration, err error) {
	ch := make(chan error, 1)
	err = s.Submit(inv, func(d time.Duration, err error) {
		elapsed = d // published to the caller by the channel send
		ch <- err
	})
	if err != nil {
		return 0, err
	}
	err = <-ch
	return elapsed, err
}

// Drain ends the session gracefully: new invocations are refused with
// ErrSessionClosed, workers finish everything already admitted (each
// queued invocation still gets its reply), and the measurement closes.
// The returned Result is the same shape a Run produces, with
// MeasureCycles rewritten to the actual serving span and the session's
// admission accounting (offered, shed, queue depths) merged in. Drain
// is idempotent; every call returns the same Result. The WAL, if any,
// stays open — close it with DB.CloseLog after Drain returns.
func (s *Session) Drain() (Result, error) {
	s.closeQueues()
	<-s.done
	if s.runErr != nil {
		return Result{}, s.runErr
	}
	s.mergeOnce.Do(func() {
		res := s.res
		res.MeasureCycles = s.nowCycles()
		adm := s.Counters()
		res.Merge(&adm)
		s.final = res
	})
	return s.final, nil
}

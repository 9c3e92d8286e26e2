package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/wal"
)

// Config controls one experiment run. It is the single definition of a
// run's knobs: the public abyss.RunConfig is an alias of this type, so
// every exported field is part of the public API. Cycles are simulated
// cycles under the simulator (1 GHz: 1 cycle = 1 ns of simulated time)
// and wall-clock nanoseconds under the native runtime. Config is
// comparable (bench.Job relies on it): interfaces and a pointer, no
// slices or maps.
type Config struct {
	// WarmupCycles is discarded ramp-up time: statistics and counters
	// reset once a worker's clock passes it (§3.2: statistics "are
	// collected after a warm-up period").
	WarmupCycles uint64

	// MeasureCycles is the measurement window after warmup; must be
	// positive. Throughput is commits / (MeasureCycles / frequency).
	MeasureCycles uint64

	// AbortBackoff is the mean randomized restart penalty after a CC
	// abort, in cycles (natively: billed, plus one yield of the worker's
	// OS thread). Zero restarts at once until a transaction has aborted
	// eight times in a row, then backs off from costs.BackoffBase,
	// doubling per failure up to 64 times that, so two transactions that
	// abort each other cannot restart in step for ever. That guard covers
	// a zero base only: on the simulator a small positive mean (1 to 10
	// cycles) can still livelock NO_WAIT, its randomized penalty far
	// shorter than the conflict it should break; set BackoffCap to let
	// the mean grow with consecutive failures.
	AbortBackoff uint64

	// SampleEvery divides the measurement window into intervals of this
	// many cycles; one Sample per interval is delivered to Observer (or
	// the abyss.DB.RunStream channel) while the run is in flight.
	// Sampling is accounting-only: it never perturbs the schedule or the
	// final Result, which is the sum of the same intervals. Zero leaves
	// the window one interval and delivers no Sample; a positive value
	// requires a sink (an Observer, or RunStream, which installs its own).
	SampleEvery uint64

	// Observer receives the interval Samples during the run. OnSample
	// runs on worker threads and must return promptly (under the
	// simulator a blocked observer blocks the whole simulation). Setting
	// an Observer requires a positive SampleEvery.
	Observer Observer

	// Check attaches a history capture (DB.Cap) recording every
	// committed transaction's read and write versions for the
	// serializability checker (VerifyCapture; abyss.DB.History and
	// CheckSerializability). Accounting-only, like the WAL: the schedule
	// and the Result are identical either way. It expects a freshly
	// populated database, where version 0 uniformly means "untouched
	// since load".
	Check bool

	// Arrivals switches the run from the paper's closed loop to an
	// open-loop arrival process (see Arrivals). The zero value keeps the
	// closed loop, byte-identical to previous releases.
	Arrivals Arrivals

	// QueueDepth bounds each worker's admission queue. Arrivals that find
	// the queue full are shed (counted in Result.Shed, never executed).
	// In an open-loop run zero means unbounded — admission control off;
	// in a serving run (abyss.DB.Serve) zero means
	// abyss.DefaultServeQueueDepth. Requires Arrivals or a serving run.
	QueueDepth int

	// ShedTypes lists transaction type names (comma-separated, resolved
	// against the workload's TxnTyper) to shed preferentially once a
	// worker's queue passes its high-water mark. Empty disables priority
	// shedding. Requires Arrivals, and Run refuses a name the workload
	// does not declare. A string rather than a slice so Config stays
	// comparable.
	ShedTypes string

	// Deadline abandons a transaction that has not committed within this
	// many cycles of its latency origin (arrival time in open loop and in
	// a serving run, first-attempt start in closed loop): it aborts as
	// ErrDeadline instead of retrying forever, counted in
	// Result.Deadlined. In a serving run it is the default for requests
	// that carry no deadline of their own. Zero disables deadlines.
	Deadline uint64

	// RetryLimit abandons a transaction after this many failed attempts
	// (RetryLimit 1 means no retries); abandoned transactions count in
	// Result.Deadlined. Zero means unlimited retries.
	RetryLimit int

	// BackoffCap, when positive, turns the fixed mean-AbortBackoff
	// restart penalty into capped exponential backoff: the mean doubles
	// with each consecutive failure up to BackoffCap. Jitter stays
	// deterministic — it draws from the worker's seeded RNG.
	BackoffCap uint64

	// Fault, when non-nil, injects stalls at transaction boundaries (see
	// FaultInjector). Billed to the Idle component.
	Fault FaultInjector

	// stop and source are engine plumbing rather than knobs; see
	// WithStop and WithSource.
	stop   *atomic.Bool
	source RequestSource
}

// WithStop returns c with a stop flag attached: workers poll it at
// transaction boundaries and, once it is set, finish their in-flight
// transaction and exit the run early. The Result covers the window
// served so far. This is the engine end of graceful SIGINT handling
// (abyss.DB.Interrupt).
func (c Config) WithStop(stop *atomic.Bool) Config {
	c.stop = stop
	return c
}

// WithSource returns c switched to remote request dispatch: workers pull
// externally submitted Requests from src instead of drawing work
// themselves (see serve.go), and the run measures until src drains.
// Validate states which fields such a serving run rejects.
func (c Config) WithSource(src RequestSource) Config {
	c.source = src
	return c
}

// Validate is the one statement of what makes a run configuration
// meaningful. The public abyss entry points return its error (prefixed
// "abyss: "); inside the engine an invalid Config is a programming error
// and Run panics with the same text. Messages name the field as callers
// spell it — Config and abyss.RunConfig are one type.
func (c Config) Validate() error {
	if c.source != nil {
		// A serving run: the session owns the window, the arrivals and
		// the admission queues; no field is silently ignored.
		switch {
		case c.WarmupCycles != 0 || c.MeasureCycles != 0:
			return errors.New("WarmupCycles and MeasureCycles do not apply to a serving run — it measures from Serve until Drain")
		case c.Arrivals != (Arrivals{}) || c.ShedTypes != "":
			return errors.New("Arrivals and ShedTypes do not apply to a serving run — requests arrive from the session, which owns the admission queues")
		case c.SampleEvery != 0 || c.Observer != nil:
			return errors.New("SampleEvery and Observer do not apply to a serving run — its window has no fixed length to divide into intervals")
		}
	} else if c.MeasureCycles == 0 {
		return errors.New("MeasureCycles must be positive (a zero window has no throughput)")
	}
	if c.Observer != nil && c.SampleEvery == 0 {
		return errors.New("Observer is set but SampleEvery is 0; set SampleEvery to the sampling interval in cycles")
	}
	if c.SampleEvery > 0 {
		if c.Observer == nil {
			return errors.New("SampleEvery is set but there is no sample sink; set Observer or use RunStream")
		}
		if c.SampleEvery > c.MeasureCycles {
			return fmt.Errorf("SampleEvery (%d) must not exceed MeasureCycles (%d); a window shorter than one interval produces no samples", c.SampleEvery, c.MeasureCycles)
		}
		if n := c.sampleIntervals(); n > MaxSampleIntervals {
			return fmt.Errorf("SampleEvery (%d) yields %d sample intervals over MeasureCycles (%d); at most %d are allowed — use a coarser sampling period", c.SampleEvery, n, c.MeasureCycles, MaxSampleIntervals)
		}
	}
	if err := c.Arrivals.Validate(); err != nil {
		return err
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("QueueDepth must not be negative, got %d", c.QueueDepth)
	}
	if c.RetryLimit < 0 {
		return fmt.Errorf("RetryLimit must not be negative, got %d", c.RetryLimit)
	}
	if c.source == nil && !c.Arrivals.Open() {
		if c.QueueDepth > 0 {
			return errors.New("QueueDepth needs an open-loop arrival process; set Arrivals")
		}
		if c.ShedTypes != "" {
			return errors.New("ShedTypes needs an open-loop arrival process; set Arrivals")
		}
	}
	return nil
}

// sampleIntervals is the number of SampleEvery-wide intervals (the last
// possibly partial) that tile the measurement window.
func (c Config) sampleIntervals() uint64 {
	return (c.MeasureCycles + c.SampleEvery - 1) / c.SampleEvery
}

// Result aggregates one run: its counts are the merge of the run's
// sampling intervals (see Sample), and AbortCauses breaks Aborts down by
// the scheme rule behind each. The json tags define the stable machine-readable
// serialization emitted by `abyss-bench -json`/`-csv` and round-tripped
// by encoding/json; renaming them is a breaking format change.
type Result struct {
	Scheme        string          `json:"scheme"`
	Workers       int             `json:"workers"`
	Commits       uint64          `json:"commits"`
	Aborts        uint64          `json:"aborts"`
	AbortCauses   AbortCauses     `json:"abort_causes"`
	Tuples        uint64          `json:"tuples"`
	MeasureCycles uint64          `json:"measure_cycles"`
	Frequency     float64         `json:"frequency_hz"`
	Breakdown     stats.Breakdown `json:"breakdown"`

	// Latency is the commit-latency histogram over the measurement
	// window (cycles from first-attempt start to commit, including
	// restarts and backoff; in open-loop runs the origin is the arrival
	// time, so queueing delay counts too). Latency.Count() equals
	// Commits.
	Latency stats.Histogram `json:"latency"`

	// Offered, Shed and Deadlined are the overload counters: arrivals
	// offered inside the measurement window (in the open loop, every one
	// its streams place there, whether or not a worker reached it before
	// the window closed; zero in closed-loop runs), arrivals rejected by
	// admission control, and transactions abandoned past their deadline
	// or retry budget.
	Offered   uint64 `json:"offered"`
	Shed      uint64 `json:"shed"`
	Deadlined uint64 `json:"deadlined"`

	// QueueDepth is the admission-queue-depth histogram, one observation
	// per arrival ingested inside the measurement window. Empty in
	// closed-loop runs.
	QueueDepth stats.Histogram `json:"queue_depth"`

	// PerTxn breaks the run down by transaction type when the workload
	// implements TxnTyper, in TxnTypes order; nil otherwise. Commits and
	// Aborts sum to the aggregate fields above (transactions the typer
	// does not recognise — TxnTypeOf < 0 — count only in the aggregate).
	PerTxn []TxnStats `json:"per_txn,omitempty"`
}

// perSec converts an event count over the measurement window into a rate.
// A zero window or frequency (a zero-value or hand-built Result) yields 0
// rather than NaN/Inf, so rates stay safe to print and serialize.
func (r Result) perSec(events uint64) float64 {
	if r.MeasureCycles == 0 || r.Frequency <= 0 {
		return 0
	}
	return float64(events) / (float64(r.MeasureCycles) / r.Frequency)
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	return r.perSec(r.Commits)
}

// TuplesPerSec returns committed tuple accesses per second (Fig. 12's
// y-axis: "the number of tuples accessed per second").
func (r Result) TuplesPerSec() float64 {
	return r.perSec(r.Tuples)
}

// AbortFraction returns aborted attempts / all attempts.
func (r Result) AbortFraction() float64 {
	total := r.Commits + r.Aborts
	if total == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(total)
}

// AbortsPerSec returns the abort rate as events per second (Fig. 5's right
// axis reports an absolute abort rate).
func (r Result) AbortsPerSec() float64 {
	return r.perSec(r.Aborts)
}

// OfferedTPS returns the offered load in transactions per second (zero
// for closed-loop runs, where load is not externally offered).
func (r Result) OfferedTPS() float64 {
	return r.perSec(r.Offered)
}

// GoodputTPS returns committed transactions per second — the useful
// output under offered load. Numerically equal to Throughput; the
// distinct name keeps knee charts (goodput vs offered) self-describing.
func (r Result) GoodputTPS() float64 {
	return r.perSec(r.Commits)
}

// ShedFraction returns the fraction of offered arrivals rejected by
// admission control, or 0 when nothing was offered.
func (r Result) ShedFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// String summarizes the run on one line.
func (r Result) String() string {
	return fmt.Sprintf("%-10s %4d cores  %10.0f txn/s  abort %5.1f%%  [%s]",
		r.Scheme, r.Workers, r.Throughput(), r.AbortFraction()*100, stats.FormatBreakdown(&r.Breakdown))
}

// Run executes workload wl on db under scheme, measuring for cfg's window,
// and returns the aggregated result. The database must already be
// populated; Run calls scheme.Setup, spawns one worker per core, and drives
// each worker's transaction stream until the simulated (or wall-clock)
// deadline passes. Workers' counts are combined only by the run's
// sampler, and the Result is the merge of its intervals. With
// cfg.SampleEvery and cfg.Observer set, one Sample per interval of the
// measurement window is delivered during the run; sampling is
// accounting-only — the returned Result, and under the simulator the
// entire schedule, are identical to an unobserved Run.
func Run(db *DB, scheme Scheme, wl Workload, cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		// Inside the engine an invalid config is a programming error;
		// the public abyss API validates and returns errors instead.
		panic(fmt.Errorf("core: %w", err))
	}
	// ShedTypes resolves against the workload, so only Run can check it;
	// the abyss API returns this panic as Run's error.
	typer, _ := wl.(TxnTyper)
	shedMask, err := shedMaskFor(typer, cfg.ShedTypes)
	if err != nil {
		panic(fmt.Errorf("core: %w", err))
	}
	scheme.Setup(db)
	if cfg.Check {
		// Snapshot the post-population state as version 0 of every slot.
		db.Cap = newCapture(db)
	} else {
		db.Cap = nil
	}
	if db.Wal != nil {
		// Open the run's log span. Replay resets its timestamp version
		// floors at the epoch boundary, because this run's transactions
		// draw from a fresh timestamp allocator.
		db.walEpoch++
		db.Wal.Append(wal.AppendMarker(nil, wal.TypeEpoch, db.walEpoch))
	}
	n := db.RT.NumProcs()
	smp := newSampler(cfg, n, db.RT.Frequency(), typer)
	warmEnd := cfg.WarmupCycles
	end := warmEnd + cfg.MeasureCycles
	if cfg.source != nil {
		end = math.MaxUint64 // a serving run measures until its source drains
	}
	db.RT.Run(func(p rt.Proc) {
		w := NewWorker(p, db, scheme)
		w.BindWorkload(wl)
		w.smp = smp
		var src source = closedLoop{p, wl}
		if cfg.source != nil {
			src = served{p, wl, cfg.source}
		} else if cfg.Arrivals.Open() {
			src = &openLoop{w: w, wl: wl, shedMask: shedMask, warmEnd: warmEnd, end: end,
				gen: NewArrivalStream(cfg.Arrivals, p.ID(), n, db.RT.Frequency()),
				q:   newAdmitQueue(cfg.QueueDepth), high: highWater(cfg.QueueDepth)}
		}
		w.loop(src, &cfg, warmEnd, end)
	})

	var t Tally
	for i := range smp.agg {
		t.merge(&smp.agg[i])
	}
	return Result{
		Scheme:        scheme.Name(),
		Workers:       n,
		Commits:       t.Commits,
		Aborts:        t.Aborts,
		AbortCauses:   t.AbortCauses,
		Tuples:        t.Tuples,
		MeasureCycles: cfg.MeasureCycles,
		Frequency:     db.RT.Frequency(),
		Breakdown:     smp.breakdown,
		Latency:       t.Latency,
		Offered:       t.Offered,
		Shed:          t.Shed,
		Deadlined:     t.Deadlined,
		QueueDepth:    t.QueueDepth,
		PerTxn:        smp.perTxn,
	}
}

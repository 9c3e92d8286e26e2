// Observability: what a run counts, per-transaction-type attribution,
// commit-latency histograms, and in-flight interval sampling.
//
// A run counts each outcome once: a worker records it into the Tally of
// its current sampling interval (and its type's TxnStats row), and the
// sampler, the only place workers' counts are combined, builds the
// Result from the merge of every interval. Without SampleEvery the window
// is one interval; with it, the Samples are the intervals the Result sums.
//
// Everything in this file is accounting-only. Recording an observation
// never calls Tick/Sync/Mem* — it reads the worker's clock and increments
// worker-private counters — so enabling any of it cannot perturb a
// simulated schedule: a run with observers, histograms and per-type
// attribution produces bit-identical commits, aborts and breakdowns to a
// run without (pinned by the inert-feature golden matrix). On the native
// runtime the per-commit cost is a few array increments; cross-worker
// aggregation happens at most once per sample interval per worker.
package core

import (
	"math"
	"sync"

	"abyss1000/internal/stats"
)

// TxnTyper is an optional interface for Workload enabling per-transaction-
// type sub-results. When the workload implements it, Run attributes every
// completed transaction to a type and Result.PerTxn reports one TxnStats
// per type, in TxnTypes order. Mix, and so every workload built from
// TxnSpecs (TPC-C's included), implements it, and so does YCSB; a
// workload that does not simply gets no PerTxn breakdown.
type TxnTyper interface {
	// TxnTypes returns the stable list of transaction type names. It
	// must return the same list on every call (callers may cache or
	// re-request it; implementations should return a stored slice).
	TxnTypes() []string

	// TxnTypeOf returns the index of txn's type in TxnTypes, or -1 when
	// the transaction is not one of the declared types (such
	// transactions count toward the aggregate Result only).
	TxnTypeOf(txn Txn) int
}

// TxnStats is one transaction type's sub-result: outcome counts and the
// commit-latency histogram, measured over the same window as the
// aggregate Result. Commits includes program-logic rollbacks (completed
// work, per TPC-C); Aborts counts concurrency-control aborts, and
// AbortCauses breaks them down by cause. Latency is first-attempt-start
// to commit, so it includes restart and backoff time.
type TxnStats struct {
	Name        string          `json:"name"`
	Commits     uint64          `json:"commits"`
	Aborts      uint64          `json:"aborts"`
	AbortCauses AbortCauses     `json:"abort_causes"`
	Latency     stats.Histogram `json:"latency"`
}

// merge adds other's counts into s (names are carried by position).
func (s *TxnStats) merge(other *TxnStats) {
	s.Commits += other.Commits
	s.Aborts += other.Aborts
	s.AbortCauses.merge(&other.AbortCauses)
	s.Latency.Merge(&other.Latency)
}

// Sample is one interval's snapshot of a run in flight. Intervals
// partition the measurement window: every outcome inside the window lands
// in exactly one interval, and Run builds the final Result from the same
// intervals, so the samples sum to the Result's counts and their
// histograms merge to its histograms by construction.
type Sample struct {
	// Interval is the 0-based interval index.
	Interval int `json:"interval"`

	// EndCycle is the interval's end as an offset from the start of the
	// measurement window; the last sample's EndCycle equals the
	// configured MeasureCycles.
	EndCycle uint64 `json:"end_cycle"`

	// Cycles is the interval's width. It equals Config.SampleEvery for
	// every interval except possibly the last, which may be partial.
	Cycles uint64 `json:"cycles"`

	// Commits and Aborts count transaction outcomes whose completion
	// fell inside this interval.
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`

	// Shed and Deadlined count overload outcomes discovered inside this
	// interval (open-loop runs only): arrivals rejected by admission
	// control and transactions abandoned past their deadline or retry
	// budget. Like Commits/Aborts they tile the window.
	Shed      uint64 `json:"shed"`
	Deadlined uint64 `json:"deadlined"`

	// Frequency is the runtime's cycle frequency in Hz, carried so the
	// rate accessors need no external context.
	Frequency float64 `json:"frequency_hz"`

	// Latency is the commit-latency histogram of this interval alone.
	Latency stats.Histogram `json:"latency"`

	// QueueDepth is the admission-queue-depth histogram of arrivals
	// ingested inside this interval (open-loop runs only).
	QueueDepth stats.Histogram `json:"queue_depth"`
}

// Throughput returns the interval's committed transactions per second.
func (s Sample) Throughput() float64 {
	if s.Cycles == 0 || s.Frequency <= 0 {
		return 0
	}
	return float64(s.Commits) / (float64(s.Cycles) / s.Frequency)
}

// AbortFraction returns aborted attempts / all attempts in the interval.
func (s Sample) AbortFraction() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Observer receives interval samples during a run. OnSample is called
// from worker threads (under the simulator, from whichever simulated
// core's goroutine completed the interval) with strictly increasing
// Interval values; it must return promptly — under the simulator a
// blocked observer blocks the whole simulation. Implementations that need
// to do slow work should hand the sample off (see abyss.DB.RunStream,
// which sends into a channel buffered for the whole run).
type Observer interface {
	OnSample(s Sample)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Sample)

// OnSample implements Observer.
func (f ObserverFunc) OnSample(s Sample) { f(s) }

// MaxSampleIntervals bounds MeasureCycles / SampleEvery; Config.Validate
// enforces it. The sampler preallocates one Tally (~1.2 KB: two histograms
// plus counters) per interval, and RunStream buffers one Sample per
// interval, so an unbounded ratio would let a tiny sampling period
// allocate gigabytes before the run starts. 100k intervals (~120 MB) is
// far beyond any useful sampling resolution.
const MaxSampleIntervals = 100_000

// Tally is what a run counts. A Worker records every outcome into its
// own: inside Run it holds the worker's current sampling interval only
// and is drained into the sampler at each interval boundary; a
// hand-built worker's accumulates everything the worker has run.
type Tally struct {
	Commits     uint64      // completed transactions: commits and program-logic rollbacks
	Aborts      uint64      // concurrency-control aborts
	AbortCauses AbortCauses // Aborts by cause
	Tuples      uint64      // tuple accesses by completed transactions (Fig. 12)
	Offered     uint64      // open-loop arrivals inside the measurement window
	Shed        uint64      // arrivals rejected by admission control
	Deadlined   uint64      // transactions abandoned past their deadline or retry budget

	// Latency is the commit-latency histogram, from the work's origin to
	// commit: restarts and backoff count, and for open-loop and served
	// work, whose origin is the arrival time, so does queueing delay.
	Latency stats.Histogram

	// QueueDepth is the admission-queue depth each ingested arrival saw
	// (open loop only).
	QueueDepth stats.Histogram
}

// merge adds other's counts into t.
func (t *Tally) merge(other *Tally) {
	t.Commits += other.Commits
	t.Aborts += other.Aborts
	t.AbortCauses.merge(&other.AbortCauses)
	t.Tuples += other.Tuples
	t.Offered += other.Offered
	t.Shed += other.Shed
	t.Deadlined += other.Deadlined
	t.Latency.Merge(&other.Latency)
	t.QueueDepth.Merge(&other.QueueDepth)
}

// sampler is the run's one aggregator. Each worker accumulates its
// current interval's tally privately (no sharing on the per-transaction
// path) and flushes it under the mutex only when its clock crosses into a
// new interval; interval i is handed to the Observer, if any, once every
// worker has flushed past it, so samples are complete, in order, and
// identical between runtimes modulo the runtimes' own schedules. A
// finishing worker also hands over its per-type rows and breakdown.
// Under the simulator exactly one worker goroutine runs at a time, so the
// mutex is uncontended and emission order is deterministic.
type sampler struct {
	every      uint64
	warmEnd    uint64
	measure    uint64
	freq       float64
	obs        Observer
	nIntervals int64

	mu        sync.Mutex
	flushed   []int64 // per worker: highest interval flushed, -1 for none
	emitted   int64   // last interval handed to the observer
	agg       []Tally
	perTxn    []TxnStats // named rows when the workload is a TxnTyper
	breakdown stats.Breakdown
}

// newSampler sizes the interval table for cfg's window: SampleEvery-wide
// intervals, or without SampleEvery one interval covering the window
// (unbounded for a serving run). All allocation happens here, before
// workers start.
func newSampler(cfg Config, workers int, freq float64, typer TxnTyper) *sampler {
	s := &sampler{
		every:      cfg.SampleEvery,
		warmEnd:    cfg.WarmupCycles,
		measure:    cfg.MeasureCycles,
		freq:       freq,
		obs:        cfg.Observer,
		nIntervals: 1,
		flushed:    make([]int64, workers),
		emitted:    -1,
	}
	if s.every > 0 {
		s.nIntervals = int64(cfg.sampleIntervals())
	} else {
		s.every = math.MaxUint64
	}
	s.agg = make([]Tally, s.nIntervals)
	for i := range s.flushed {
		s.flushed[i] = -1
	}
	if typer != nil {
		names := typer.TxnTypes()
		s.perTxn = make([]TxnStats, len(names))
		for i, name := range names {
			s.perTxn[i].Name = name
		}
	}
	return s
}

// intervalOf maps a completion time inside the measurement window to its
// interval index.
func (s *sampler) intervalOf(now uint64) int64 {
	if now < s.warmEnd {
		return 0
	}
	idx := int64((now - s.warmEnd) / s.every)
	if idx >= s.nIntervals {
		idx = s.nIntervals - 1
	}
	return idx
}

// advance drains w's tally into its current interval as w's clock
// enters interval next, marking the intervals before next complete for w
// (a worker that skipped intervals simply contributed nothing to them).
func (s *sampler) advance(w *Worker, next int64) {
	s.mu.Lock()
	s.agg[w.scur].merge(&w.Tally)
	w.Tally = Tally{}
	s.flushed[w.P.ID()] = next - 1
	s.emitReady()
	s.mu.Unlock()
	w.scur = next
}

// finish hands over w's per-type rows, breakdown and last interval, and
// marks every interval complete for it; called once when the worker's
// run loop exits.
func (s *sampler) finish(w *Worker) {
	s.mu.Lock()
	for i := range w.perTxn {
		s.perTxn[i].merge(&w.perTxn[i])
	}
	s.breakdown.Merge(w.P.Stats())
	s.mu.Unlock()
	s.advance(w, s.nIntervals)
}

// emitReady hands every interval all workers have flushed past to the
// observer, in order. Called with mu held.
func (s *sampler) emitReady() {
	if s.obs == nil {
		return
	}
	ready := s.nIntervals - 1
	for _, f := range s.flushed {
		if f < ready {
			ready = f
		}
	}
	for i := s.emitted + 1; i <= ready; i++ {
		a := &s.agg[i]
		end := uint64(i+1) * s.every
		if end > s.measure {
			end = s.measure
		}
		s.obs.OnSample(Sample{
			Interval:   int(i),
			EndCycle:   end,
			Cycles:     end - uint64(i)*s.every,
			Commits:    a.Commits,
			Aborts:     a.Aborts,
			Shed:       a.Shed,
			Deadlined:  a.Deadlined,
			Frequency:  s.freq,
			Latency:    a.Latency,
			QueueDepth: a.QueueDepth,
		})
		s.emitted = i
	}
}

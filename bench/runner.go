// Two-phase experiment execution.
//
// Every figure function is written against a *Plan: wherever a one-pass
// harness would run a simulation inline, the figure calls Plan.Run with a
// self-describing Job. The same figure function then serves two modes:
//
//   - collect: Plan.Run records the job and returns a zero Result; one
//     pass over the figure function yields its flat job list without
//     simulating anything.
//   - replay: Plan.Run hands back the precomputed result for the next
//     recorded job; a second pass over the figure function reassembles
//     the Figure from results the Runner produced on a worker pool.
//
// A serial build (-parallel 1, or a nil Runner) is the same two passes
// over a pool of one.
//
// This works because figure functions are pure sweeps: their control flow
// never depends on a Result's values, only on Params. The replay pass
// verifies this invariant — each incoming job must equal the recorded one
// — and panics on divergence, so a result-dependent figure fails loudly
// instead of silently misassigning points.
//
// Determinism: a Job is executed by Job.Run regardless of pool width or
// worker, and Job.Run constructs everything it touches from the job's own
// fields (including its seed). Serial and parallel builds therefore
// produce byte-identical figures, which TestSerialParallelEquivalence pins.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/internal/core"
)

// Plan threads the execution mode through a figure function. Figure code
// only ever calls Run; everything else is driven by Build/BuildAll.
type Plan struct {
	replaying  bool
	experiment string
	jobs       []Job
	results    []core.Result
	next       int
}

// Run records or replays one job depending on the plan mode.
func (pl *Plan) Run(j Job) core.Result {
	if j.Experiment == "" {
		j.Experiment = pl.experiment
	}
	if !pl.replaying {
		pl.jobs = append(pl.jobs, j)
		return core.Result{}
	}
	if pl.next >= len(pl.jobs) {
		panic(fmt.Sprintf("bench: experiment %q enumerated %d jobs but asked for more on replay; figure control flow must not depend on results", pl.experiment, len(pl.jobs)))
	}
	if pl.jobs[pl.next] != j {
		panic(fmt.Sprintf("bench: experiment %q replay mismatch at job %d: enumerated %+v, replayed %+v; figure control flow must not depend on results", pl.experiment, pl.next, pl.jobs[pl.next], j))
	}
	r := pl.results[pl.next]
	pl.next++
	return r
}

// discardSamples is the sink for harness-level sampling: the smoke runs
// only verify that sampling does not change results, so the samples
// themselves are dropped.
type discardSamples struct{}

// OnSample implements core.Observer.
func (discardSamples) OnSample(core.Sample) {}

// sampleSink returns the discarding observer when sampling is on, nil
// otherwise (core skips the sampler entirely for a nil observer).
func sampleSink(every uint64) core.Observer {
	if every == 0 {
		return nil
	}
	return discardSamples{}
}

// ValidateSampling reports whether every data point at scale p can run
// with Runner.SampleEvery set to every: the period must suit both the
// simulated window and the native Fig. 3 window (wall-clock nanoseconds).
// Run it before building figures — an unsuitable period would otherwise
// surface as the engine's invalid-config panic on a pool worker.
func (p Params) ValidateSampling(every uint64) error {
	for _, window := range []uint64{p.MeasureCycles, p.NativeMeasureNS} {
		cfg := core.Config{MeasureCycles: window, SampleEvery: every, Observer: sampleSink(every)}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Progress reports worker-pool completion to Runner.OnProgress.
type Progress struct {
	// Done and Total count completed and enumerated jobs.
	Done, Total int
	// Elapsed is wall-clock time since Execute started; Remaining is
	// the linear-extrapolation ETA (zero until the first completion).
	Elapsed, Remaining time.Duration
	// Last is the job that just completed.
	Last Job
}

// Runner executes a flat job list across a worker pool. The zero value
// runs GOMAXPROCS-wide with no progress reporting; a nil *Runner is a pool
// of one (the serial build).
type Runner struct {
	// Workers is the pool width; <= 0 means runtime.GOMAXPROCS(0).
	// Each simulated job is one thread of control (the simulator's
	// cores are coroutines of the goroutine that runs the job), so
	// GOMAXPROCS-wide pools scale the suite near-linearly. 1 runs the
	// points one at a time, in enumeration order.
	Workers int

	// OnProgress, when non-nil, is called after every job completes.
	// Calls are serialized; the callback must not block for long.
	OnProgress func(Progress)

	// SampleEvery, when positive, runs every engine-backed job with
	// interval sampling enabled at this period (samples are discarded).
	// Sampling is accounting-only, so results — and the rendered
	// figures, JSON and CSV — are byte-identical to an unsampled run;
	// the CI smoke step exercises exactly that equivalence.
	SampleEvery uint64

	// Stop, when non-nil and set, makes the runner stop dispatching new
	// jobs: in-flight jobs drain normally and every undispatched job
	// yields a zero Result, so a figure can still be assembled from the
	// points completed so far. abyss-bench sets it from its SIGINT
	// handler.
	Stop *atomic.Bool
}

// stopped reports whether the runner's stop flag has been raised.
func (r *Runner) stopped() bool { return r.Stop != nil && r.Stop.Load() }

func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Execute runs every job and returns results in job order. Jobs marked
// Exclusive (native wall-clock runs) execute one at a time after the
// parallel jobs drain, so pool contention cannot distort their timing.
func (r *Runner) Execute(jobs []Job) []core.Result {
	if r == nil {
		r = &Runner{Workers: 1}
	}
	results := make([]core.Result, len(jobs))
	var pool, exclusive []int
	for i, j := range jobs {
		if j.Exclusive {
			exclusive = append(exclusive, i)
		} else {
			pool = append(pool, i)
		}
	}

	start := time.Now()
	var mu sync.Mutex
	done := 0
	complete := func(i int) {
		if r.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		elapsed := time.Since(start)
		var remaining time.Duration
		if done > 0 && done < len(jobs) {
			remaining = time.Duration(float64(elapsed) / float64(done) * float64(len(jobs)-done))
		}
		r.OnProgress(Progress{Done: done, Total: len(jobs), Elapsed: elapsed, Remaining: remaining, Last: jobs[i]})
	}

	every := r.SampleEvery
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i] = jobs[i].RunSampled(every, sampleSink(every))
				complete(i)
			}
		}()
	}
	for _, i := range pool {
		if r.stopped() {
			break
		}
		ch <- i
	}
	close(ch)
	wg.Wait()

	for _, i := range exclusive {
		if r.stopped() {
			break
		}
		results[i] = jobs[i].RunSampled(every, sampleSink(every))
		complete(i)
	}
	return results
}

// Build runs one figure function: the figure is enumerated, its jobs run
// on r's pool, and the figure is reassembled by replay.
func Build(fn FigureFunc, p Params, r *Runner) *Figure {
	return Experiment{Run: fn}.Build(p, r)
}

// Build runs the registered experiment at scale p under runner r.
func (e Experiment) Build(p Params, r *Runner) *Figure {
	return BuildAll([]Experiment{e}, p, r)[0]
}

// Jobs enumerates the experiment's full job list at scale p without
// executing anything.
func (e Experiment) Jobs(p Params) []Job {
	pl := &Plan{experiment: e.ID}
	e.Run(p, pl)
	return pl.jobs
}

// BuildAll runs several experiments as one flat job list: every
// experiment is enumerated first, the combined list executes on the
// worker pool (so small figures cannot leave the pool idle), and each
// figure is then reassembled from its slice of the results.
func BuildAll(es []Experiment, p Params, r *Runner) []*Figure {
	figs := make([]*Figure, len(es))
	plans := make([]*Plan, len(es))
	var all []Job
	for i, e := range es {
		plans[i] = &Plan{experiment: e.ID}
		e.Run(p, plans[i])
		all = append(all, plans[i].jobs...)
	}

	results := r.Execute(all)

	off := 0
	for i, e := range es {
		pl := plans[i]
		pl.replaying = true
		pl.results = results[off : off+len(pl.jobs)]
		off += len(pl.jobs)
		figs[i] = e.Run(p, pl)
		if pl.next != len(pl.jobs) {
			panic(fmt.Sprintf("bench: experiment %q enumerated %d jobs but replayed only %d; figure control flow must not depend on results", e.ID, len(pl.jobs), pl.next))
		}
	}
	return figs
}

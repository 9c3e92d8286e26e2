// Experiment execution.
//
// Every experiment is a spec: its figure header, the flat list of
// self-describing Jobs it runs, and, for every series point and
// breakdown row, the index of the job whose result lands there. BuildAll
// builds each experiment's spec once, a Runner executes the concatenated
// job list across a worker pool, and each figure is rendered from its
// slice of the results. A serial build (-parallel 1, or a nil Runner) is
// the same job list over a pool of one.
//
// A spec is built from Params alone and never sees a Result, so a
// figure's shape cannot depend on measured values.
//
// Determinism: a Job is executed by Job.Run regardless of pool width or
// worker, and Job.Run constructs everything it touches from the job's own
// fields (including its seed). Serial and parallel builds therefore
// produce byte-identical figures, which TestSerialParallelEquivalence pins.
package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/internal/core"
)

// spec lays out one experiment as data: the figure header, the jobs it
// runs, where each job's result lands, and the claims its figure should
// bear out (claims.go). Several points or breakdown rows may name the same
// job; it still runs once.
type spec struct {
	head       Figure
	jobs       []Job
	series     []seriesSpec
	breakdowns []breakdownSpec
	claims     []Claim
}

// seriesSpec is one series: point i plots y of result jobs[i] at xs[i].
type seriesSpec struct {
	name string
	y    yExtract
	xs   []float64
	jobs []int
}

// breakdownSpec is one breakdown table: row i is schemes[i]'s breakdown
// in result jobs[i].
type breakdownSpec struct {
	title   string
	schemes []string
	jobs    []int
}

// sweep appends one job per x, plots them as the series name, and
// returns the jobs' indexes for other series and breakdown rows to reuse.
func (s *spec) sweep(name string, y yExtract, xs []float64, job func(x float64) Job) []int {
	idx := make([]int, len(xs))
	for i, x := range xs {
		idx[i] = len(s.jobs)
		s.jobs = append(s.jobs, job(x))
	}
	s.series = append(s.series, seriesSpec{name, y, xs, idx})
	return idx
}

// render draws the figure from results, indexed like s.jobs.
func (s *spec) render(results []core.Result) *Figure {
	fig := s.head
	for _, ss := range s.series {
		out := Series{Name: ss.name}
		for i, x := range ss.xs {
			r := results[ss.jobs[i]]
			out.Points = append(out.Points, Point{X: x, Y: ss.y(r), Res: r})
		}
		fig.Series = append(fig.Series, out)
	}
	for _, bs := range s.breakdowns {
		bd := Breakdown{Title: bs.title}
		for i, name := range bs.schemes {
			bd.Rows = append(bd.Rows, BreakdownRow{Scheme: name, Fractions: results[bs.jobs[i]].Breakdown.Fractions()})
		}
		fig.Breakdowns = append(fig.Breakdowns, bd)
	}
	return &fig
}

// floats converts core counts to x-values.
func floats(ints []int) []float64 {
	out := make([]float64, len(ints))
	for i, n := range ints {
		out[i] = float64(n)
	}
	return out
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

// Execute runs every job and returns results in job order. Native
// wall-clock jobs (JobNativeYCSB) execute one at a time after the
// parallel jobs drain, so pool contention cannot distort their timing.
func (r *Runner) Execute(jobs []Job) []core.Result {
	if r == nil {
		r = &Runner{Workers: 1}
	}
	results := make([]core.Result, len(jobs))
	var pool, exclusive []int
	for i, j := range jobs {
		if j.Kind == JobNativeYCSB {
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

	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i] = jobs[i].Run()
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
		results[i] = jobs[i].Run()
		complete(i)
	}
	return results
}

// Build runs the registered experiment at scale p under runner r.
func (e Experiment) Build(p Params, r *Runner) *Figure {
	return BuildAll([]Experiment{e}, p, r)[0]
}

// Jobs enumerates the experiment's full job list at scale p without
// executing anything.
func (e Experiment) Jobs(p Params) []Job {
	return e.layout(p).jobs
}

// layout builds e's spec at scale p and stamps every job with e's id.
func (e Experiment) layout(p Params) *spec {
	s := e.spec(p)
	for i := range s.jobs {
		s.jobs[i].Experiment = e.ID
	}
	return s
}

// BuildAll runs several experiments as one flat job list: every spec is
// built first, the combined list executes on the worker pool (so small
// figures cannot leave the pool idle), and each figure is then rendered
// from its slice of the results.
func BuildAll(es []Experiment, p Params, r *Runner) []*Figure {
	specs := make([]*spec, len(es))
	var all []Job
	for i, e := range es {
		specs[i] = e.layout(p)
		all = append(all, specs[i].jobs...)
	}

	results := r.Execute(all)

	figs := make([]*Figure, len(es))
	for i, s := range specs {
		figs[i] = s.render(results[:len(s.jobs)])
		results = results[len(s.jobs):]
	}
	return figs
}

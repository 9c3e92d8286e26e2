package abyss1000_test

// Observability regression tests: latency histograms, per-transaction-
// type attribution and interval sampling are accounting-only, so enabling
// any of them must not move a single simulated cycle. These tests pin
// that on the full Result and on the internal consistency of the samples
// themselves; the golden matrix (determinism_test.go) pins it on the
// signature.

import (
	"reflect"
	"sync"
	"testing"

	"abyss1000/bench"
	"abyss1000/internal/core"
	"abyss1000/internal/sim"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

// collectObserver accumulates every sample (mutex-guarded so the same
// observer also works under the native runtime).
type collectObserver struct {
	mu      sync.Mutex
	samples []core.Sample
}

func (c *collectObserver) OnSample(s core.Sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// ycsbRun executes one small simulated YCSB measurement, optionally
// observed, and returns the result.
func ycsbRun(scheme string, cfg core.Config) core.Result {
	return ycsbRunTheta(scheme, ycsb.DefaultConfig().Theta, cfg)
}

// ycsbRunTheta is ycsbRun at zipf skew theta.
func ycsbRunTheta(scheme string, theta float64, cfg core.Config) core.Result {
	eng := sim.New(8, 42)
	db := core.NewDB(eng)
	ycfg := ycsb.DefaultConfig()
	ycfg.Rows = 4096
	ycfg.ReqPerTxn = 8
	ycfg.Theta = theta
	wl := ycsb.Build(db, ycfg)
	return core.Run(db, bench.MakeScheme(scheme, tsalloc.Atomic), wl, cfg)
}

// TestRunObservedResultIdentical pins that the complete Result — the
// counters and breakdown and the new latency histogram and per-type
// sub-results — is deep-equal with and without an observer attached, on
// every engine path a figure takes: plain YCSB, DL_DETECT with a zero
// timeout (Fig 5), the global allocator (malloc ablation), TPC-C, and the
// knee's open loop at its highest offered load.
func TestRunObservedResultIdentical(t *testing.T) {
	ycfg := ycsb.DefaultConfig()
	ycfg.Rows, ycfg.ReqPerTxn = 4096, 8
	type job struct {
		name string
		bench.Job
	}
	cases := []job{{"ycsb", bench.Job{Kind: bench.JobYCSB, Cores: 8, Seed: 42, Scheme: "NO_WAIT", YCSB: ycfg,
		Cfg: core.Config{WarmupCycles: 50_000, MeasureCycles: 200_000, AbortBackoff: 1000}}}}
	p := bench.Params{MaxCores: 4, WarmupCycles: 20_000, MeasureCycles: 100_000, Rows: 1024, FieldSize: 20, Seed: 7}
	for _, c := range []struct {
		name, fig string
		pick      func(bench.Job) bool
	}{
		{"fig5-timeout0", "5", func(j bench.Job) bool { return j.UseTimeout && j.Timeout == 0 }},
		{"global-malloc", "malloc", func(j bench.Job) bool { return j.GlobalMalloc }},
		{"tpcc", "16", func(j bench.Job) bool { return j.Kind == bench.JobTPCC }},
		{"knee", "knee", func(j bench.Job) bool { return j.Cfg.Arrivals.Open() }},
	} {
		e, err := bench.Lookup(c.fig)
		if err != nil {
			t.Fatal(err)
		}
		var last *bench.Job // the most cores, or the knee's highest load
		for _, j := range e.Jobs(p) {
			if c.pick(j) {
				last = &j
			}
		}
		if last == nil {
			t.Fatalf("%s: Fig %s has no such job", c.name, c.fig)
		}
		cases = append(cases, job{c.name, *last})
	}
	for _, c := range cases {
		j := c.Job
		t.Run(c.name, func(t *testing.T) {
			plain := j.Run()
			obs := &collectObserver{}
			j.Cfg.SampleEvery, j.Cfg.Observer = 30_000, obs
			observed := j.Run()
			if len(obs.samples) == 0 {
				t.Fatal("the observer saw no samples")
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observer changed the result:\nplain    %+v\nobserved %+v", plain, observed)
			}
		})
	}
}

// TestSamplesPartitionWindow pins the sampler's central invariant: the
// intervals tile the measurement window exactly, and every in-window
// outcome lands in exactly one sample — so the samples' tallies merge to
// the Result's, every count, abort cause and histogram of it. The closed
// loop exercises commits, aborts, causes, tuples and latency; an open
// loop with a bounded queue, a deadline and a retry budget adds offered,
// shed, deadlined and queue depth. The
// contended closed loop has transactions that straddle the end of
// warm-up and abort across intervals before their worker's first
// boundary past it: each in-window outcome of theirs lands in the
// interval it happened in, like any other.
func TestSamplesPartitionWindow(t *testing.T) {
	const (
		measure = 200_000
		every   = 30_000 // deliberately not a divisor: the last interval is partial
	)
	for _, c := range []struct {
		name  string
		theta float64
		open  func(*core.Config)
	}{
		{"closed", ycsb.DefaultConfig().Theta, nil},
		{"closed-contended", 0.9, nil},
		{"open", ycsb.DefaultConfig().Theta, func(cfg *core.Config) {

			cfg.Arrivals = core.Arrivals{Process: core.ArrivalPoisson, RateTPS: 20_000_000, Seed: 3}
			cfg.QueueDepth = 8
			cfg.Deadline = 20_000
			cfg.RetryLimit = 2
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			obs := &collectObserver{}
			cfg := core.Config{WarmupCycles: 50_000, MeasureCycles: measure, AbortBackoff: 1000, SampleEvery: every, Observer: obs}
			if c.open != nil {
				c.open(&cfg)
			}
			res := ycsbRunTheta("NO_WAIT", c.theta, cfg)

			wantIntervals := (measure + every - 1) / every
			if len(obs.samples) != wantIntervals {
				t.Fatalf("got %d samples, want %d", len(obs.samples), wantIntervals)
			}
			var sum core.Tally // the samples' tallies merged
			for i, s := range obs.samples {
				if s.Interval != i {
					t.Fatalf("sample %d has interval %d; samples must arrive in order", i, s.Interval)
				}
				wantEnd := uint64(i+1) * every
				wantWidth := uint64(every)
				if wantEnd > measure {
					wantWidth -= wantEnd - measure
					wantEnd = measure
				}
				if s.EndCycle != wantEnd || s.Cycles != wantWidth {
					t.Fatalf("sample %d covers (end %d, width %d), want (end %d, width %d)", i, s.EndCycle, s.Cycles, wantEnd, wantWidth)
				}
				if s.Frequency != 1e9 {
					t.Fatalf("sample %d frequency = %g, want 1e9", i, s.Frequency)
				}
				if s.Latency.Count() != s.Commits {
					t.Fatalf("sample %d: latency count %d != commits %d", i, s.Latency.Count(), s.Commits)
				}
				sum.Merge(&s.Tally)
			}
			if !reflect.DeepEqual(sum, res.Tally) {
				t.Fatalf("samples merge to\n%+v\nresult has\n%+v", sum, res.Tally)
			}
			if res.Latency.Count() != res.Commits {
				t.Fatalf("result latency count %d != commits %d", res.Latency.Count(), res.Commits)
			}
			if c.open != nil && (res.Shed == 0 || res.Deadlined == 0 || res.QueueDepth.Count() == 0) {
				t.Fatalf("open loop should shed, abandon and record queue depth: shed %d deadlined %d depth observations %d",
					res.Shed, res.Deadlined, res.QueueDepth.Count())
			}
		})
	}
}

// TestPerTxnAttribution pins the per-type sub-results on both built-in
// workloads: names in declaration order, counts summing to the aggregate,
// and one latency observation per completed transaction.
func TestPerTxnAttribution(t *testing.T) {
	cfg := core.Config{WarmupCycles: 50_000, MeasureCycles: 200_000, AbortBackoff: 1000}

	t.Run("tpcc", func(t *testing.T) {
		eng := sim.New(8, 7)
		db := core.NewDB(eng)
		wl := tpcc.Build(db, tpcc.DefaultConfig(4))
		res := core.Run(db, bench.MakeScheme("NO_WAIT", tsalloc.Atomic), wl, cfg)
		assertPerTxnSums(t, res, []string{"Payment", "NewOrder"})
		for i := range res.PerTxn {
			if res.PerTxn[i].Commits == 0 {
				t.Errorf("%s committed nothing", res.PerTxn[i].Name)
			}
		}
	})

	t.Run("ycsb", func(t *testing.T) {
		res := ycsbRun("MVCC", cfg)
		assertPerTxnSums(t, res, []string{"ycsb"})
	})
}

// assertPerTxnSums checks names and that per-type commits/aborts/latency
// sum exactly to the aggregate Result.
func assertPerTxnSums(t *testing.T, res core.Result, wantNames []string) {
	t.Helper()
	if len(res.PerTxn) != len(wantNames) {
		t.Fatalf("PerTxn has %d entries, want %d (%v)", len(res.PerTxn), len(wantNames), wantNames)
	}
	var commits, aborts, latCount uint64
	for i := range res.PerTxn {
		ts := &res.PerTxn[i]
		if ts.Name != wantNames[i] {
			t.Errorf("PerTxn[%d].Name = %q, want %q", i, ts.Name, wantNames[i])
		}
		if ts.Latency.Count() != ts.Commits {
			t.Errorf("%s: latency count %d != commits %d", ts.Name, ts.Latency.Count(), ts.Commits)
		}
		commits += ts.Commits
		aborts += ts.Aborts
		latCount += ts.Latency.Count()
	}
	if commits != res.Commits || aborts != res.Aborts {
		t.Fatalf("per-txn sums (%d commits, %d aborts) != aggregate (%d, %d)", commits, aborts, res.Commits, res.Aborts)
	}
	if latCount != res.Latency.Count() {
		t.Fatalf("per-txn latency observations %d != aggregate %d", latCount, res.Latency.Count())
	}
}

package core_test

// Overload-tier semantics, pinned on the deterministic sim runtime:
// admission control bounds queue depth and tail latency past saturation
// (and sheds the excess), an unbounded queue grows without bound under
// the same offered load, deadlines and retry budgets count separately
// from CC aborts, and the per-interval samples' overload counters sum
// exactly to the final Result.

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/faultinject"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

const overloadCores = 4

func overloadWorkload(eng *sim.Engine) (*core.DB, core.Workload) {
	db := core.NewDB(eng)
	cfg := ycsb.DefaultConfig()
	cfg.Rows = 4096
	cfg.ReqPerTxn = 4
	cfg.ReadPct = 0.9
	cfg.Theta = 0.2
	return db, ycsb.Build(db, cfg)
}

func noWait() core.Scheme {
	return twopl.New(twopl.NoWait, twopl.Options{})
}

// saturationTPS measures the closed-loop capacity of the overload test
// workload, the reference point for "2x saturation offered load".
func saturationTPS(t *testing.T) float64 {
	t.Helper()
	eng := sim.New(overloadCores, 42)
	db, wl := overloadWorkload(eng)
	res := core.Run(db, noWait(), wl, core.Config{
		WarmupCycles:  50_000,
		MeasureCycles: 400_000,
		AbortBackoff:  1000,
	})
	if res.Commits == 0 {
		t.Fatal("closed-loop reference run committed nothing")
	}
	return res.Throughput()
}

func openConfig(rate float64, qdepth int) core.Config {
	return core.Config{
		WarmupCycles:  50_000,
		MeasureCycles: 400_000,
		AbortBackoff:  1000,
		QueueDepth:    qdepth,
		Arrivals: core.Arrivals{
			Process: core.ArrivalPoisson,
			RateTPS: rate,
			Seed:    99,
		},
	}
}

func TestOverloadAdmissionControlBoundsQueueAndTail(t *testing.T) {
	sat := saturationTPS(t)
	offered := 2.5 * sat

	runAt := func(qdepth int) core.Result {
		eng := sim.New(overloadCores, 42)
		db, wl := overloadWorkload(eng)
		return core.Run(db, noWait(), wl, openConfig(offered, qdepth))
	}

	const bound = 16
	ac := runAt(bound)
	unbounded := runAt(0)

	if ac.Offered == 0 || unbounded.Offered == 0 {
		t.Fatal("open loop offered nothing")
	}
	// With admission control: bounded queue, nonzero shed fraction.
	if got := ac.QueueDepth.Max(); got > bound {
		t.Fatalf("queue depth exceeded its bound: max %d > %d", got, bound)
	}
	if ac.Shed == 0 {
		t.Fatalf("2.5x saturation with a bounded queue must shed: %+v", ac)
	}
	if f := ac.ShedFraction(); f <= 0 || f >= 1 {
		t.Fatalf("shed fraction out of range: %v", f)
	}
	// Without: the backlog grows without bound over the window (far past
	// the AC bound) and nothing is shed.
	if unbounded.Shed != 0 {
		t.Fatalf("unbounded queue must not shed, got %d", unbounded.Shed)
	}
	if got := unbounded.QueueDepth.Max(); got < 8*bound {
		t.Fatalf("unbounded backlog did not grow: max depth %d", got)
	}
	// Tail latency: bounded sojourn vs a backlog that only deepens. The
	// unbounded P99 includes queueing delay that grows with the window,
	// so AC must be far below it.
	if ac.Latency.P99() >= unbounded.Latency.P99()/4 {
		t.Fatalf("admission control did not bound tail latency: AC P99 %d vs unbounded %d",
			ac.Latency.P99(), unbounded.Latency.P99())
	}
	if ac.Throughput() <= 0 {
		t.Fatal("no goodput under admission control")
	}
	if ac.OfferedTPS() < 1.5*sat {
		t.Fatalf("offered rate %v did not reach the configured overload (sat %v)", ac.OfferedTPS(), sat)
	}
}

// TestOverloadSampleSumsMatchResult pins the accounting identity from the
// issue: Commits, Aborts, Shed and Deadlined summed across the interval
// samples equal the final Result's counters exactly.
func TestOverloadSampleSumsMatchResult(t *testing.T) {
	sat := saturationTPS(t)
	eng := sim.New(overloadCores, 42)
	db, wl := overloadWorkload(eng)
	cfg := openConfig(2.5*sat, 16)
	cfg.SampleEvery = 40_000
	// A deadline of a few mean service times: queued transactions near
	// the back of a full queue are abandoned at dequeue, so both the
	// shed and the deadline paths fire.
	cfg.Deadline = 10_000
	cfg.RetryLimit = 4

	var sums struct{ commits, aborts, shed, deadlined, qdepth uint64 }
	cfg.Observer = core.ObserverFunc(func(s core.Sample) {
		sums.commits += s.Commits
		sums.aborts += s.Aborts
		sums.shed += s.Shed
		sums.deadlined += s.Deadlined
		sums.qdepth += s.QueueDepth.Count()
	})
	res := core.Run(db, noWait(), wl, cfg)

	if sums.commits != res.Commits || sums.aborts != res.Aborts {
		t.Fatalf("sample sums diverge from result: commits %d/%d aborts %d/%d",
			sums.commits, res.Commits, sums.aborts, res.Aborts)
	}
	if sums.shed != res.Shed || sums.deadlined != res.Deadlined {
		t.Fatalf("overload sample sums diverge: shed %d/%d deadlined %d/%d",
			sums.shed, res.Shed, sums.deadlined, res.Deadlined)
	}
	if sums.qdepth != res.QueueDepth.Count() {
		t.Fatalf("queue-depth observations diverge: %d vs %d", sums.qdepth, res.QueueDepth.Count())
	}
	if res.Shed == 0 || res.Deadlined == 0 {
		t.Fatalf("overload run should exercise shed and deadline paths: %+v", res)
	}
}

// TestDeadlinedCountsSeparatelyFromAborts uses a retry budget of one
// attempt: every CC abort immediately abandons its transaction, so the
// Deadlined count must equal the abort count — and commits never double
// count into either.
func TestDeadlinedCountsSeparatelyFromAborts(t *testing.T) {
	run := func(retryLimit int) core.Result {
		eng := sim.New(overloadCores, 7)
		db := core.NewDB(eng)
		cfg := ycsb.DefaultConfig()
		cfg.Rows = 256 // high contention: plenty of aborts
		cfg.ReqPerTxn = 8
		cfg.ReadPct = 0.5
		cfg.Theta = 0.8
		wl := ycsb.Build(db, cfg)
		return core.Run(db, noWait(), wl, core.Config{
			WarmupCycles:  20_000,
			MeasureCycles: 300_000,
			AbortBackoff:  1000,
			RetryLimit:    retryLimit,
		})
	}
	res := run(1)
	if res.Aborts == 0 {
		t.Fatal("contended workload produced no aborts")
	}
	if res.Deadlined != res.Aborts {
		t.Fatalf("with RetryLimit 1 every abort abandons: deadlined %d, aborts %d",
			res.Deadlined, res.Aborts)
	}
	// Unlimited retries: nothing is ever abandoned.
	if unlimited := run(0); unlimited.Deadlined != 0 {
		t.Fatalf("unlimited retries must not deadline, got %d", unlimited.Deadlined)
	}
}

// TestDeadlineAbandonsLongTransactions drives an overloaded open loop
// with a deadline shorter than the queueing delay and checks that
// transactions are abandoned as Deadlined, not silently retried or
// counted as CC aborts.
func TestDeadlineAbandonsLongTransactions(t *testing.T) {
	sat := saturationTPS(t)
	eng := sim.New(overloadCores, 42)
	db, wl := overloadWorkload(eng)
	cfg := openConfig(2.5*sat, 0) // unbounded queue: sojourn grows
	cfg.Deadline = 20_000
	res := core.Run(db, noWait(), wl, cfg)
	if res.Deadlined == 0 {
		t.Fatalf("overloaded run with a short deadline abandoned nothing: %+v", res)
	}
	// Every commit beat its deadline-gated retry loop; latency of the
	// committed population stays near the deadline (one in-flight attempt
	// may finish past it, but the tail cannot run away).
	if res.Commits == 0 {
		t.Fatal("deadline run committed nothing")
	}
}

// TestBackoffCapDeterminism pins seed-determinism of the capped
// exponential backoff: two identical configurations produce deeply equal
// results, and enabling the cap changes behavior relative to fixed
// backoff (the exponential actually engages).
func TestBackoffCapDeterminism(t *testing.T) {
	run := func(cap uint64) core.Result {
		eng := sim.New(overloadCores, 11)
		db := core.NewDB(eng)
		cfg := ycsb.DefaultConfig()
		cfg.Rows = 256
		cfg.ReqPerTxn = 8
		cfg.ReadPct = 0.5
		cfg.Theta = 0.8
		wl := ycsb.Build(db, cfg)
		return core.Run(db, noWait(), wl, core.Config{
			WarmupCycles:  20_000,
			MeasureCycles: 300_000,
			AbortBackoff:  500,
			BackoffCap:    cap,
		})
	}
	a, b := run(8000), run(8000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("capped backoff is not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if fixed := run(0); reflect.DeepEqual(a, fixed) {
		t.Fatal("backoff cap had no effect on a contended run")
	}
}

// TestPrioritySheddingByType sheds TPC-C Payment transactions once the
// queue passes its high-water mark and checks NewOrder is preserved:
// under the per-type results, Payment loses a larger share of its
// completions than NewOrder.
func TestPrioritySheddingByType(t *testing.T) {
	// Measure TPC-C's closed-loop capacity first so the offered load is
	// reliably past saturation.
	satRun := func() core.Result {
		eng := sim.New(overloadCores, 21)
		db := core.NewDB(eng)
		wl := tpcc.Build(db, tpcc.DefaultConfig(overloadCores))
		return core.Run(db, noWait(), wl, core.Config{
			WarmupCycles:  50_000,
			MeasureCycles: 400_000,
			AbortBackoff:  1000,
		})
	}()
	if satRun.Commits == 0 {
		t.Fatal("closed-loop TPC-C committed nothing")
	}
	run := func(shed string) core.Result {
		eng := sim.New(overloadCores, 21)
		db := core.NewDB(eng)
		wl := tpcc.Build(db, tpcc.DefaultConfig(overloadCores))
		cfg := core.Config{
			WarmupCycles:  50_000,
			MeasureCycles: 400_000,
			AbortBackoff:  1000,
			QueueDepth:    16,
			ShedTypes:     shed,
			Arrivals: core.Arrivals{
				Process: core.ArrivalPoisson,
				RateTPS: 3 * satRun.Throughput(),
				Seed:    5,
			},
		}
		return core.Run(db, noWait(), wl, cfg)
	}
	plain := run("")
	prio := run("Payment")
	if prio.Shed == 0 || plain.Shed == 0 {
		t.Fatal("overdriven TPC-C must shed")
	}
	frac := func(r core.Result, i int) float64 {
		total := r.PerTxn[0].Commits + r.PerTxn[1].Commits
		if total == 0 {
			return 0
		}
		return float64(r.PerTxn[i].Commits) / float64(total)
	}
	// Payment is index 0. With priority shedding its share of completed
	// work must drop relative to the unprioritized run.
	if frac(prio, 0) >= frac(plain, 0) {
		t.Fatalf("priority shedding did not deprioritize Payment: share %.3f vs %.3f",
			frac(prio, 0), frac(plain, 0))
	}
	if prio.PerTxn[1].Commits == 0 {
		t.Fatal("NewOrder starved despite being protected")
	}
}

// TestFaultInjectionStallsWorker pins the injector contract end to end: a
// stalled worker bills Idle cycles and completes less work than the
// fault-free run, and two faulted runs are identical (determinism).
func TestFaultInjectionStallsWorker(t *testing.T) {
	run := func(f core.FaultInjector) core.Result {
		eng := sim.New(overloadCores, 42)
		db, wl := overloadWorkload(eng)
		cfg := core.Config{
			WarmupCycles:  50_000,
			MeasureCycles: 400_000,
			AbortBackoff:  1000,
			Fault:         f,
		}
		return core.Run(db, noWait(), wl, cfg)
	}
	clean := run(nil)
	fault := faultinject.StalledWorker{Worker: 1, From: 100_000, Until: 350_000}
	stalled := run(fault)
	if stalled.Commits >= clean.Commits {
		t.Fatalf("stalling a worker for most of the window should cost commits: %d vs %d",
			stalled.Commits, clean.Commits)
	}
	if got := stalled.Breakdown.Get(stats.Idle); got == 0 {
		t.Fatal("injected stall billed no Idle cycles")
	}
	if again := run(fault); !reflect.DeepEqual(stalled, again) {
		t.Fatal("fault injection broke determinism")
	}
	if clean.Breakdown.Get(stats.Idle) != 0 {
		t.Fatal("fault-free closed loop must bill no Idle cycles")
	}
}

// TestStopFlagEndsRunEarly sets the WithStop flag from an observer mid-run;
// workers drain their in-flight transaction and exit, so the stopped run
// completes a fraction of the full run's work.
func TestStopFlagEndsRunEarly(t *testing.T) {
	run := func(stopAt int) core.Result {
		eng := sim.New(overloadCores, 42)
		db, wl := overloadWorkload(eng)
		var stop atomic.Bool
		cfg := core.Config{
			WarmupCycles:  50_000,
			MeasureCycles: 400_000,
			AbortBackoff:  1000,
			SampleEvery:   20_000,
			Observer: core.ObserverFunc(func(s core.Sample) {
				if stopAt >= 0 && s.Interval >= stopAt {
					stop.Store(true)
				}
			}),
		}
		return core.Run(db, noWait(), wl, cfg.WithStop(&stop))
	}
	full := run(-1)
	stopped := run(2)
	if stopped.Commits == 0 {
		t.Fatal("stopped run should keep the work done so far")
	}
	if stopped.Commits >= full.Commits/2 {
		t.Fatalf("stop flag did not end the run early: %d vs full %d", stopped.Commits, full.Commits)
	}
}

// TestOpenLoopDeterminism: the whole open-loop tier (arrivals, queues,
// shedding, deadlines, sampling) is deterministic on the sim runtime.
func TestOpenLoopDeterminism(t *testing.T) {
	sat := saturationTPS(t)
	run := func() core.Result {
		eng := sim.New(overloadCores, 42)
		db, wl := overloadWorkload(eng)
		cfg := openConfig(2.0*sat, 8)
		cfg.Deadline = 100_000
		cfg.RetryLimit = 3
		cfg.BackoffCap = 16_000
		return core.Run(db, noWait(), wl, cfg)
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("open loop is not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMMPPBurstsOfferMoreThanCalm: the bursty generator's offered load
// sits between the calm and burst rates, and is deterministic.
func TestMMPPBurstsOfferMoreThanCalm(t *testing.T) {
	sat := saturationTPS(t)
	run := func(p core.ArrivalProcess) core.Result {
		eng := sim.New(overloadCores, 42)
		db, wl := overloadWorkload(eng)
		cfg := openConfig(0.5*sat, 0)
		cfg.Arrivals.Process = p
		if p == core.ArrivalMMPP {
			cfg.Arrivals.BurstRateTPS = 4 * sat
			cfg.Arrivals.BurstCycles = 50_000
			cfg.Arrivals.CalmCycles = 100_000
		}
		return core.Run(db, noWait(), wl, cfg)
	}
	calm := run(core.ArrivalPoisson)
	bursty := run(core.ArrivalMMPP)
	if bursty.Offered <= calm.Offered {
		t.Fatalf("MMPP bursts should raise offered load: %d vs %d", bursty.Offered, calm.Offered)
	}
}

// TestOfferedCountsEveryArrivalInWindow: Offered is the number of arrivals
// the workers' streams place inside the measurement window, including
// those due after a worker's last transaction boundary (a worker still
// running a transaction at the window's end never ingests them).
func TestOfferedCountsEveryArrivalInWindow(t *testing.T) {
	sat := saturationTPS(t)
	for _, load := range []float64{0.5, 2.5} {
		eng := sim.New(overloadCores, 42)
		db, wl := overloadWorkload(eng)
		cfg := openConfig(load*sat, 16)
		res := core.Run(db, noWait(), wl, cfg)

		var want uint64
		end := cfg.WarmupCycles + cfg.MeasureCycles
		for i := 0; i < overloadCores; i++ {
			g := core.NewArrivalStream(cfg.Arrivals, i, overloadCores, db.RT.Frequency())
			for ; g.Peek() < end; g.Take() {
				if g.Peek() >= cfg.WarmupCycles {
					want++
				}
			}
		}
		if res.Offered != want {
			t.Errorf("%.1fx saturation: Offered = %d, the arrival streams put %d in the window", load, res.Offered, want)
		}
	}
}

// TestShedTypesResolvedAgainstWorkload: Run refuses a ShedTypes entry the
// workload does not declare, naming the field and the valid types, and
// refuses ShedTypes on a workload that declares no types at all.
func TestShedTypesResolvedAgainstWorkload(t *testing.T) {
	for _, c := range []struct {
		name  string
		typed bool
		shed  string
		want  string
	}{
		{"unknown type", true, "ycsb, NoSuchTxn", `"NoSuchTxn"`},
		{"untyped workload", false, "ycsb", "TxnTyper"},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New(overloadCores, 42)
			db, wl := overloadWorkload(eng)
			if !c.typed {
				wl = struct{ core.Workload }{wl}
			}
			cfg := openConfig(100_000, 16)
			cfg.ShedTypes = c.shed
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), "ShedTypes") || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Run with ShedTypes %q: want an error naming ShedTypes and %s, got %v", c.shed, c.want, err)
				}
			}()
			core.Run(db, noWait(), wl, cfg)
		})
	}
}

// TestOverloadConfigValidation pins that a configuration with every
// overload knob engaged validates (the rejections are rows of
// TestConfigValidate's table).
func TestOverloadConfigValidation(t *testing.T) {
	good := openConfig(1000, 8)
	good.ShedTypes = "ycsb"
	good.Deadline = 500
	good.RetryLimit = 2
	good.BackoffCap = 4000
	good.Fault = faultinject.LatencySpike{Period: 1000, Duration: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid overload config rejected: %v", err)
	}
}

package core_test

// Open-loop schedules pinned across commits. The other open-loop tests
// compare two fresh runs of one binary, so a rewrite of the worker loop
// that moved a single Tick, Park, clock read or RNG draw would pass them;
// these literal signatures were recorded before such a rewrite and must
// not change without a deliberate timing-model or counting change (the
// last: a transaction that straddles the end of warm-up counts). Offered
// is left out: it counts arrivals independently of the schedule.

import (
	"fmt"
	"strings"
	"testing"

	"abyss1000/internal/cc/to"
	"abyss1000/internal/core"
	"abyss1000/internal/faultinject"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

// histSig renders every field of a histogram: count, sum, max and the
// non-empty log2 buckets.
func histSig(h *stats.Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d sum=%d max=%d [", h.Count(), h.Sum(), h.Max())
	sep := ""
	for i := 0; i < stats.NumHistBuckets; i++ {
		if c := h.Bucket(i); c > 0 {
			fmt.Fprintf(&b, "%s%d:%d", sep, i, c)
			sep = " "
		}
	}
	b.WriteByte(']')
	return b.String()
}

// openSig is the schedule-dependent part of an open-loop Result.
func openSig(r core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d aborts=%d tuples=%d shed=%d deadlined=%d\n", r.Commits, r.Aborts, r.Tuples, r.Shed, r.Deadlined)
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		fmt.Fprintf(&b, "%s=%d", c.Key(), r.Breakdown.Get(c))
		if c < stats.NumComponents-1 {
			b.WriteByte(' ')
		}
	}
	fmt.Fprintf(&b, "\nlat %s\nqdepth %s", histSig(&r.Latency), histSig(&r.QueueDepth))
	return b.String()
}

// pinnedOpenRun is one of the four pinned configurations: a Poisson run on
// TPC-C with a bounded queue, priority shedding of Payment, a deadline and
// a retry budget, and an MMPP run on YCSB with an unbounded queue, capped
// exponential backoff, a deadline and a periodic latency spike. A positive
// sampleEvery attaches an observer that discards the samples.
func pinnedOpenRun(scheme string, mmpp bool, sampleEvery uint64) core.Result {
	var sch core.Scheme
	if scheme == "NO_WAIT" {
		sch = noWait()
	} else {
		sch = to.New(tsalloc.Atomic)
	}
	cfg := core.Config{WarmupCycles: 50_000, MeasureCycles: 300_000, AbortBackoff: 1000}
	if sampleEvery > 0 {
		cfg.SampleEvery, cfg.Observer = sampleEvery, core.ObserverFunc(func(core.Sample) {})
	}
	if !mmpp {
		eng := sim.New(overloadCores, 21)
		db := core.NewDB(eng)
		wl := tpcc.Build(db, tpcc.DefaultConfig(1)) // one warehouse: Payments conflict
		cfg.Arrivals = core.Arrivals{Process: core.ArrivalPoisson, RateTPS: 1_500_000, Seed: 5}
		cfg.QueueDepth = 16
		cfg.ShedTypes = "Payment"
		cfg.Deadline = 60_000
		cfg.RetryLimit = 3
		return core.Run(db, sch, wl, cfg)
	}
	eng := sim.New(overloadCores, 42)
	db := core.NewDB(eng)
	ycfg := ycsb.DefaultConfig()
	ycfg.Rows = 256 // contended: aborts back off
	ycfg.ReqPerTxn = 8
	ycfg.ReadPct = 0.5
	ycfg.Theta = 0.8
	wl := ycsb.Build(db, ycfg)
	cfg.Arrivals = core.Arrivals{
		Process: core.ArrivalMMPP, RateTPS: 200_000, BurstRateTPS: 2_000_000,
		CalmCycles: 60_000, BurstCycles: 20_000, Seed: 99,
	}
	cfg.Deadline = 40_000
	cfg.BackoffCap = 8_000
	cfg.Fault = faultinject.LatencySpike{Period: 70_000, Duration: 3_000}
	return core.Run(db, sch, wl, cfg)
}

func TestOpenLoopPinnedSchedules(t *testing.T) {
	for _, c := range []struct {
		scheme string
		mmpp   bool
		want   string
	}{
		{"NO_WAIT", false, `commits=150 aborts=215 tuples=5114 shed=176 deadlined=67
useful=405379 abort=322036 ts_alloc=0 index=254203 wait=0 manager=210980 log=0 idle=4160
lat n=150 sum=6359281 max=67515 [13:3 14:8 15:27 16:110 17:2]
qdepth n=407 sum=4797 max=16 [1:10 2:13 3:24 4:260 5:100]`},
		{"NO_WAIT", true, `commits=153 aborts=117 tuples=1224 shed=0 deadlined=25
useful=113870 abort=447002 ts_alloc=0 index=54574 wait=0 manager=156560 log=0 idle=376282
lat n=153 sum=2439421 max=41714 [11:7 12:27 13:29 14:29 15:38 16:23]
qdepth n=212 sum=1236 max=26 [1:67 2:37 3:40 4:52 5:16]`},
		{"TIMESTAMP", false, `commits=171 aborts=9 tuples=5219 shed=204 deadlined=16
useful=475080 abort=48168 ts_alloc=1300 index=262541 wait=198197 manager=230990 log=0 idle=0
lat n=171 sum=7109410 max=71604 [14:5 15:43 16:119 17:4]
qdepth n=404 sum=5008 max=16 [3:20 4:289 5:95]`},
		{"TIMESTAMP", true, `commits=157 aborts=29 tuples=1256 shed=0 deadlined=22
useful=274420 abort=103465 ts_alloc=1420 index=56801 wait=72209 manager=254007 log=0 idle=389781
lat n=157 sum=2849932 max=44749 [12:28 13:23 14:37 15:36 16:33]
qdepth n=212 sum=1289 max=21 [1:65 2:35 3:39 4:56 5:17]`},
	} {
		got := openSig(pinnedOpenRun(c.scheme, c.mmpp, 0))
		if got != c.want {
			t.Errorf("%s mmpp=%v: open-loop schedule moved\ngot:\n%s\nwant:\n%s", c.scheme, c.mmpp, got, c.want)
		}
	}
}

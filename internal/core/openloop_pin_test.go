package core_test

// Open-loop schedules pinned across commits. The other open-loop tests
// compare two fresh runs of one binary, so a rewrite of the worker loop
// that moved a single Tick, Park, clock read or RNG draw would pass them;
// these literal signatures were recorded before such a rewrite and must
// not change without a deliberate timing-model change. Offered is left
// out: it counts arrivals independently of the schedule.

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
// exponential backoff, a deadline and a periodic latency spike.
func pinnedOpenRun(scheme string, mmpp bool) core.Result {
	var sch core.Scheme
	if scheme == "NO_WAIT" {
		sch = noWait()
	} else {
		sch = to.New(tsalloc.Atomic)
	}
	cfg := core.Config{WarmupCycles: 50_000, MeasureCycles: 300_000, AbortBackoff: 1000}
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
		{"NO_WAIT", false, `commits=140 aborts=181 tuples=5051 shed=190 deadlined=59
useful=435016 abort=267524 ts_alloc=0 index=280379 wait=0 manager=214959 log=0 idle=0
lat n=140 sum=6043606 max=67807 [15:34 16:103 17:3]
qdepth n=407 sum=4903 max=16 [3:37 4:267 5:103]`},
		{"NO_WAIT", true, `commits=128 aborts=112 tuples=1024 shed=0 deadlined=44
useful=184176 abort=474795 ts_alloc=0 index=52636 wait=0 manager=131555 log=0 idle=304994
lat n=128 sum=2451948 max=43115 [12:20 13:19 14:32 15:20 16:37]
qdepth n=206 sum=1455 max=29 [1:53 2:40 3:40 4:44 5:29]`},
		{"TIMESTAMP", false, `commits=159 aborts=7 tuples=4967 shed=214 deadlined=14
useful=455532 abort=41864 ts_alloc=1230 index=274310 wait=206472 manager=221661 log=0 idle=0
lat n=159 sum=7319442 max=71602 [14:1 15:25 16:129 17:4]
qdepth n=407 sum=5181 max=16 [3:15 4:275 5:117]`},
		{"TIMESTAMP", true, `commits=162 aborts=28 tuples=1296 shed=0 deadlined=14
useful=282428 abort=108114 ts_alloc=1450 index=67601 wait=80530 manager=261940 log=0 idle=347971
lat n=162 sum=2830666 max=45078 [12:21 13:29 14:40 15:48 16:24]
qdepth n=212 sum=1222 max=25 [1:63 2:39 3:46 4:50 5:14]`},
	} {
		got := openSig(pinnedOpenRun(c.scheme, c.mmpp))
		if got != c.want {
			t.Errorf("%s mmpp=%v: open-loop schedule moved\ngot:\n%s\nwant:\n%s", c.scheme, c.mmpp, got, c.want)
		}
	}
}

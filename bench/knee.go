package bench

// The overload-knee extension: the paper's evaluation is entirely
// closed-loop (one outstanding transaction per worker), which can never
// show what happens when offered load exceeds capacity. This experiment
// drives the same write-intensive YCSB point open-loop across a fixed
// ladder of offered loads with a bounded admission queue, and plots
// goodput against offered load. Below the knee the curve tracks the
// diagonal (everything offered commits); past it, goodput plateaus at the
// scheme's capacity while admission control sheds the excess — the queue
// stays bounded instead of growing without limit.

import (
	"fmt"

	"abyss1000/internal/core"
	"abyss1000/internal/tsalloc"
)

// kneeQueueDepth bounds each worker's admission queue for every knee
// point; small enough that queueing delay stays a handful of service
// times, large enough to absorb Poisson burstiness below the knee.
const kneeQueueDepth = 16

// kneeOffered is the offered-load ladder in transactions per second,
// chosen to straddle every scheme's capacity at the experiment's core
// count (16 simulated cores at 1 GHz serve roughly 2-8 Mtxn/s on this
// workload depending on the scheme). The ladder is fixed — not derived
// from measured capacity — because a spec never sees a result (see
// runner.go).
var kneeOffered = []float64{250_000, 500_000, 1e6, 2e6, 4e6, 8e6, 16e6}

// kneeJob describes one open-loop point: the closed-loop YCSB job plus
// Poisson arrivals at the given offered load and a bounded admission
// queue. The arrival stream reuses the run seed, so the whole figure
// stays deterministic for a given -seed.
func (p Params) kneeJob(scheme string, cores int, rate float64) Job {
	j := p.ycsbJob(scheme, tsalloc.Atomic, cores, p.ycsb(0.5, 0.6))
	j.Cfg.Arrivals = core.Arrivals{Process: core.ArrivalPoisson, RateTPS: rate, Seed: p.Seed}
	j.Cfg.QueueDepth = kneeQueueDepth
	j.Cfg.BackoffCap = 8_000
	return j
}

// kneeLatencySuffixes name the per-scheme commit-latency series appended
// after the goodput series: "<scheme>:lat_p50" and "<scheme>:lat_p99".
// The names are stable JSON/CSV keys — scripts select on them.
var kneeLatencySuffixes = []string{":lat_p50", ":lat_p99"}

// extensionKnee builds the offered-vs-goodput knee figure. The first
// len(SchemeNames) series are goodput per scheme (x = offered ktxn/s,
// y = goodput ktxn/s); they are followed by two commit-latency series per
// scheme ("<scheme>:lat_p50", "<scheme>:lat_p99", in kcycles) taken from
// the same runs' Latency histograms — engine-side arrival-to-commit
// latency including queueing delay, independent of any wire transport.
func extensionKnee(p Params) *spec {
	cores := p.capCores(16)
	s := &spec{head: Figure{
		ID:     "Knee",
		Title:  fmt.Sprintf("Overload knee: offered load vs goodput (YCSB theta=0.6, %d cores, queue depth %d)", cores, kneeQueueDepth),
		XLabel: "offered ktxn/s",
		YLabel: "goodput ktxn/s",
		Notes:  "open-loop Poisson arrivals with bounded admission queues; below the knee goodput tracks offered load, past it admission control sheds the excess; the :lat_p50/:lat_p99 series give commit latency per rung in kcycles (arrival to commit, queueing included)",
	}}
	offered := make([]float64, len(kneeOffered))
	for i, rate := range kneeOffered {
		offered[i] = rate / 1e3
	}
	goodput := func(r core.Result) float64 { return r.GoodputTPS() / 1e3 }
	p50 := func(r core.Result) float64 { return float64(r.Latency.P50()) / 1e3 }
	p99 := func(r core.Result) float64 { return float64(r.Latency.P99()) / 1e3 }
	runs := make([][]int, len(SchemeNames))
	for i, name := range SchemeNames {
		runs[i] = s.sweep(name, goodput, offered, func(k float64) Job {
			return p.kneeJob(name, cores, k*1e3)
		})
	}
	// The latency series plot the goodput runs' results again.
	for i, name := range SchemeNames {
		s.series = append(s.series,
			seriesSpec{name + kneeLatencySuffixes[0], p50, offered, runs[i]},
			seriesSpec{name + kneeLatencySuffixes[1], p99, offered, runs[i]})
	}
	return s
}

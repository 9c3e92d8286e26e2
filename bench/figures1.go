package bench

import (
	"fmt"
	"runtime"

	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/ycsb"
)

// ycsb returns the standard YCSB configuration for params p at one
// read fraction and skew.
func (p Params) ycsb(readPct, theta float64) ycsb.Config {
	cfg := ycsb.DefaultConfig()
	cfg.Rows = p.Rows
	cfg.FieldSize = p.FieldSize
	cfg.ReadPct = readPct
	cfg.Theta = theta
	return cfg
}

// fig3 reproduces "Simulator vs. Real Hardware": the same read-intensive
// medium-contention YCSB workload under every scheme, once on the
// simulator and once on real goroutines, up to the host's core count. The
// claim under test is trend agreement, not absolute speed. The native
// points are wall-clock measurements, so the runner never overlaps them
// with other work, and their values vary run-to-run even at a fixed seed.
func fig3(p Params) *spec {
	cfg := p.ycsb(0.9, 0.6)
	var cores []float64
	for c := 1; c <= min(runtime.GOMAXPROCS(0), 32); c *= 2 {
		cores = append(cores, float64(c))
	}
	s := &spec{head: Figure{
		ID:     "Fig 3",
		Title:  "Simulator vs. Real Hardware (YCSB read-intensive, theta=0.6)",
		XLabel: "cores",
		YLabel: "Mtxn/s",
		Notes:  fmt.Sprintf("native columns ran on this host (%d hardware threads); compare trends, not magnitudes", runtime.NumCPU()),
	}}
	for _, name := range SchemeNames {
		s.sweep("sim:"+name, throughputM, cores, func(c float64) Job {
			return p.ycsbJob(name, tsalloc.Atomic, int(c), cfg)
		})
		s.sweep("native:"+name, throughputM, cores, func(c float64) Job {
			return p.nativeJob(name, int(c), cfg)
		})
	}
	return s
}

// fig4 reproduces "Lock Thrashing": DL_DETECT with detection disabled,
// transactions acquiring locks in primary-key order, under three
// contention levels. Throughput climbs then collapses as core counts and
// skew grow — the fundamental 2PL bottleneck.
func fig4(p Params) *spec {
	s := &spec{head: Figure{
		ID:     "Fig 4",
		Title:  "Lock Thrashing (DL_DETECT, no detection, key-ordered acquisition, write-intensive YCSB)",
		XLabel: "cores",
		YLabel: "Mtxn/s",
	}}
	for _, theta := range []float64{0, 0.6, 0.8} {
		cfg := p.ycsb(0.5, theta)
		cfg.Ordered = true
		s.sweep(fmt.Sprintf("theta=%.1f", theta), throughputM, floats(p.Ladder()), func(c float64) Job {
			return p.timeoutJob(twopl.NoTimeout, true, int(c), cfg)
		})
	}
	return s
}

// fig5 reproduces "Waiting vs. Aborting": DL_DETECT under high contention
// at 64 cores, sweeping the wait timeout from 0 (equivalent to NO_WAIT)
// upward. Short timeouts trade abort rate for throughput.
func fig5(p Params) *spec {
	cfg := p.ycsb(0.5, 0.8)
	cores := p.capCores(64)
	s := &spec{head: Figure{
		ID:     "Fig 5",
		Title:  fmt.Sprintf("Waiting vs. Aborting (DL_DETECT, theta=0.8, %d cores)", cores),
		XLabel: "timeout(us)",
		YLabel: "Mtxn/s / abort-fraction",
		Notes:  "timeouts beyond the measurement window behave as infinite waiting",
	}}
	timeouts := []float64{0, 1, 10, 100, 1000}
	runs := s.sweep("throughput", throughputM, timeouts, func(us float64) Job {
		return p.timeoutJob(uint64(us*1000), false, cores, cfg) // µs -> cycles at 1 GHz
	})
	s.series = append(s.series, seriesSpec{"abort-fraction", core.Result.AbortFraction, timeouts, runs})
	return s
}

// fig6 reproduces the timestamp-allocation micro-benchmark: every worker
// allocates timestamps back-to-back; throughput per method versus core
// count. The atomic counter plateaus on coherence traffic, the hardware
// counter reaches ~1 ts/cycle, the clock scales linearly.
func fig6(p Params) *spec {
	s := &spec{head: Figure{
		ID:     "Fig 6",
		Title:  "Timestamp Allocation Micro-benchmark",
		XLabel: "cores",
		YLabel: "Mts/s",
	}}
	for _, m := range tsalloc.Methods {
		s.sweep(m.String(), throughputM, floats(p.Ladder()), func(c float64) Job {
			return p.tsallocJob(m, int(c))
		})
	}
	return s
}

// fig7 reproduces "Timestamp Allocation (in the DBMS)": the TIMESTAMP
// scheme on write-intensive YCSB with each allocation method, at zero and
// medium contention. Batched allocation collapses under contention
// because restarted transactions keep drawing stale-batch timestamps.
func fig7(p Params) *spec {
	s := &spec{head: Figure{
		ID:     "Fig 7",
		Title:  "Timestamp Allocation in the DBMS (YCSB write-intensive, TIMESTAMP)",
		XLabel: "cores",
		YLabel: "Mtxn/s",
	}}
	for _, sub := range []struct {
		label string
		theta float64
	}{
		{"(a) no contention", 0},
		{"(b) medium contention", 0.6},
	} {
		cfg := p.ycsb(0.5, sub.theta)
		for _, m := range tsalloc.Methods {
			s.sweep(fmt.Sprintf("%s %s", sub.label, m), throughputM, floats(p.Ladder()), func(c float64) Job {
				return p.ycsbJob("TIMESTAMP", m, int(c), cfg)
			})
		}
	}
	return s
}

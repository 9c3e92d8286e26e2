package bench

import (
	"fmt"
	"slices"

	"abyss1000/internal/core"
	"abyss1000/internal/tsalloc"
)

// schemesAcrossLadder sweeps every tuple-level scheme across the core
// ladder for one YCSB config, capturing the breakdown at bdCores. Where
// bdCores is not a rung of the ladder (512 under a 1024-core ladder), the
// breakdown runs one job per scheme of its own.
func (p Params) schemesAcrossLadder(id, title string, readPct, theta float64, bdCores int) *spec {
	cfg := p.ycsb(readPct, theta)
	s := &spec{head: Figure{ID: id, Title: title, XLabel: "cores", YLabel: "Mtxn/s"}}
	ladder := p.Ladder()
	rung := slices.Index(ladder, bdCores)
	bd := breakdownSpec{title: fmt.Sprintf("(b) runtime breakdown @ %d cores", bdCores), schemes: SchemeNames}
	for _, name := range SchemeNames {
		runs := s.sweep(name, throughputM, floats(ladder), func(c float64) Job {
			return p.ycsbJob(name, tsalloc.Atomic, int(c), cfg)
		})
		if rung >= 0 {
			bd.jobs = append(bd.jobs, runs[rung])
		}
	}
	if rung < 0 {
		for _, name := range SchemeNames {
			bd.jobs = append(bd.jobs, len(s.jobs))
			s.jobs = append(s.jobs, p.ycsbJob(name, tsalloc.Atomic, bdCores, cfg))
		}
	}
	s.breakdowns = append(s.breakdowns, bd)
	return s
}

// capCores clamps a paper core count to this run's ladder top.
func (p Params) capCores(want int) int {
	return min(want, p.MaxCores)
}

// fig8 reproduces "Read-only Workload": uniform accesses, 16 reads per
// transaction. T/O schemes flatline on timestamp allocation; TIMESTAMP
// and OCC additionally pay for read copies.
func fig8(p Params) *spec {
	return p.schemesAcrossLadder("Fig 8", "Read-only YCSB (uniform)", 1.0, 0, p.MaxCores)
}

// fig9 reproduces "Write-Intensive Workload (Medium Contention)".
func fig9(p Params) *spec {
	return p.schemesAcrossLadder("Fig 9", "Write-intensive YCSB, medium contention (theta=0.6)", 0.5, 0.6, p.capCores(512))
}

// fig10 reproduces "Write-Intensive Workload (High Contention)".
func fig10(p Params) *spec {
	return p.schemesAcrossLadder("Fig 10", "Write-intensive YCSB, high contention (theta=0.8)", 0.5, 0.8, p.capCores(64))
}

// fig11 reproduces "Write-Intensive Workload (Variable Contention)": the
// theta sweep at 64 cores. Throughput collapses past theta ~0.6-0.8 for
// every scheme.
func fig11(p Params) *spec {
	cores := p.capCores(64)
	s := &spec{head: Figure{
		ID:     "Fig 11",
		Title:  fmt.Sprintf("Write-intensive YCSB, variable contention (%d cores)", cores),
		XLabel: "theta",
		YLabel: "Mtxn/s",
	}}
	for _, name := range SchemeNames {
		s.sweep(name, throughputM, []float64{0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}, func(theta float64) Job {
			return p.ycsbJob(name, tsalloc.Atomic, cores, p.ycsb(0.5, theta))
		})
	}
	return s
}

// fig12 reproduces "Working Set Size": tuples accessed per second as the
// per-transaction footprint grows from 1 to 16, at 512 cores, medium
// skew. Short transactions expose the timestamp-allocation bottleneck;
// long ones amortize it.
func fig12(p Params) *spec {
	cores := p.capCores(512)
	s := &spec{head: Figure{
		ID:     "Fig 12",
		Title:  fmt.Sprintf("Working Set Size (theta=0.6, %d cores)", cores),
		XLabel: "rows/txn",
		YLabel: "Mtuple/s",
	}}
	tuplesM := func(r core.Result) float64 { return r.TuplesPerSec() / 1e6 }
	bd := breakdownSpec{title: "(b) runtime breakdown @ 1 row/txn", schemes: SchemeNames}
	for _, name := range SchemeNames {
		runs := s.sweep(name, tuplesM, []float64{1, 2, 4, 8, 12, 16}, func(n float64) Job {
			cfg := p.ycsb(0.5, 0.6)
			cfg.ReqPerTxn = int(n)
			return p.ycsbJob(name, tsalloc.Atomic, cores, cfg)
		})
		bd.jobs = append(bd.jobs, runs[0])
	}
	s.breakdowns = append(s.breakdowns, bd)
	return s
}

// fig13 reproduces "Read/Write Mixture": the read-percentage sweep under
// high skew at 64 cores. MVCC's non-blocking reads dominate once the mix
// is read-heavy but not read-only.
func fig13(p Params) *spec {
	cores := p.capCores(64)
	s := &spec{head: Figure{
		ID:     "Fig 13",
		Title:  fmt.Sprintf("Read/Write Mixture (theta=0.8, %d cores)", cores),
		XLabel: "read-fraction",
		YLabel: "Mtxn/s",
	}}
	for _, name := range SchemeNames {
		s.sweep(name, throughputM, []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}, func(mix float64) Job {
			return p.ycsbJob(name, tsalloc.Atomic, cores, p.ycsb(mix, 0.8))
		})
	}
	return s
}

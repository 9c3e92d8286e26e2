package abyss1000_test

import (
	"runtime"
	"testing"

	"abyss1000/abyss"
	"abyss1000/bench"
)

// benchParams shrinks the experiments so `go test -bench=.` finishes in a
// few minutes; cmd/abyss-bench runs the same experiments at quick or full
// (1024-core) scale. Every benchmark reports the headline metric of its
// figure via b.ReportMetric.
func benchParams() bench.Params {
	return bench.Params{
		MaxCores:        16,
		WarmupCycles:    100_000,
		MeasureCycles:   400_000,
		Rows:            8_192,
		FieldSize:       100,
		NativeWarmupNS:  2_000_000,
		NativeMeasureNS: 10_000_000,
		Seed:            42,
	}
}

// reportFigure re-runs registry experiment id b.N times (serially —
// parallel-runner equivalence is pinned by the bench package's own tests)
// and reports the first series' top-core throughput.
func reportFigure(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		fig = e.Build(p, nil)
	}
	if fig == nil || len(fig.Series) == 0 {
		b.Fatal("figure produced no series")
	}
	s := fig.Series[0]
	if len(s.Points) == 0 {
		b.Fatal("series has no points")
	}
	last := s.Points[len(s.Points)-1]
	b.ReportMetric(last.Y, "Mtxn/s@top")
}

// BenchmarkFig03 regenerates Fig. 3: simulator vs real hardware trends.
func BenchmarkFig03(b *testing.B) { reportFigure(b, "3") }

// BenchmarkFig04 regenerates Fig. 4: lock thrashing.
func BenchmarkFig04(b *testing.B) { reportFigure(b, "4") }

// BenchmarkFig05 regenerates Fig. 5: waiting vs aborting.
func BenchmarkFig05(b *testing.B) { reportFigure(b, "5") }

// BenchmarkFig06 regenerates Fig. 6: timestamp allocation methods.
func BenchmarkFig06(b *testing.B) { reportFigure(b, "6") }

// BenchmarkFig07 regenerates Fig. 7: timestamp allocation in the DBMS.
func BenchmarkFig07(b *testing.B) { reportFigure(b, "7") }

// BenchmarkFig08 regenerates Fig. 8: read-only YCSB.
func BenchmarkFig08(b *testing.B) { reportFigure(b, "8") }

// BenchmarkFig09 regenerates Fig. 9: write-intensive YCSB, theta=0.6.
func BenchmarkFig09(b *testing.B) { reportFigure(b, "9") }

// BenchmarkFig10 regenerates Fig. 10: write-intensive YCSB, theta=0.8.
func BenchmarkFig10(b *testing.B) { reportFigure(b, "10") }

// BenchmarkFig11 regenerates Fig. 11: the contention sweep.
func BenchmarkFig11(b *testing.B) { reportFigure(b, "11") }

// BenchmarkFig12 regenerates Fig. 12: working set size.
func BenchmarkFig12(b *testing.B) { reportFigure(b, "12") }

// BenchmarkFig13 regenerates Fig. 13: read/write mixture.
func BenchmarkFig13(b *testing.B) { reportFigure(b, "13") }

// BenchmarkFig14 regenerates Fig. 14: database partitioning.
func BenchmarkFig14(b *testing.B) { reportFigure(b, "14") }

// BenchmarkFig15 regenerates Fig. 15: multi-partition transactions.
func BenchmarkFig15(b *testing.B) { reportFigure(b, "15") }

// BenchmarkFig16 regenerates Fig. 16: TPC-C with 4 warehouses.
func BenchmarkFig16(b *testing.B) { reportFigure(b, "16") }

// BenchmarkFig17 regenerates Fig. 17: TPC-C with warehouses >= workers.
func BenchmarkFig17(b *testing.B) { reportFigure(b, "17") }

// BenchmarkAblationMalloc regenerates the §4.1 allocator ablation.
func BenchmarkAblationMalloc(b *testing.B) { reportFigure(b, "malloc") }

// BenchmarkAblationValidation regenerates the §4.3 OCC validation
// ablation (parallel per-tuple vs global critical section).
func BenchmarkAblationValidation(b *testing.B) { reportFigure(b, "occ-validation") }

// BenchmarkBuild times one fresh database build (BuildWorkload, the
// benchmark's setup.build_s) in the three shapes the repository benchmark
// builds: sim-ycsb's 200 000 YCSB rows of 10 × 100 B on a 64-core simulated
// chip, serve-wire's 250 000 SmallBank accounts on two native workers, and
// native-tpcc's full-mix TPC-C of one warehouse on one native worker, its
// insert tables sized for 24 849 inserts (what one round reserves).
// Like benchmark/, it collects the previous build outside the timer, so
// every build starts from the same heap. Run it at -cpu 1,2: the YCSB rows
// are zeroed on every core and its index pass runs beside the row pass, so
// the one-core number is the one that must not lose.
func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name, workload string
		opts           abyss.Options
		set            func(*abyss.WorkloadParams)
	}{
		{"ycsb-sim64", "ycsb", abyss.Options{Runtime: abyss.RuntimeSim, Cores: 64, Seed: 42},
			func(p *abyss.WorkloadParams) { p.Rows, p.Fields, p.FieldSize = 200_000, 10, 100 }},
		{"smallbank-native2", "smallbank", abyss.Options{Runtime: abyss.RuntimeNative, Cores: 2, Seed: 42},
			func(p *abyss.WorkloadParams) { p.Accounts = 250_000 }},
		{"tpcc-native1", "tpcc", abyss.Options{Runtime: abyss.RuntimeNative, Cores: 1, Seed: 42},
			func(p *abyss.WorkloadParams) { p.Warehouses, p.Mix, p.InsertsPerWorker = 1, "full", 24_849 }},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			p, err := abyss.DefaultWorkloadParams(s.workload)
			if err != nil {
				b.Fatal(err)
			}
			s.set(&p)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				db, err := abyss.Open(s.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := db.BuildWorkload(s.workload, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/build")
		})
	}
}

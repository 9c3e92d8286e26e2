// Command abyss-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	abyss-bench -fig 6                  # one experiment, quick scale
//	abyss-bench -fig 9 -full            # one experiment at 1024 cores
//	abyss-bench -all                    # the whole evaluation, quick scale
//	abyss-bench -all -json > run.json   # ... as machine-readable JSON
//	abyss-bench -fig 11 -csv > f11.csv  # one experiment, flat CSV points
//	abyss-bench -table 2                # the bottleneck-summary table
//	abyss-bench -list                   # enumerate experiments
//	abyss-bench -fig 17 -verify         # ... then one verdict per claim
//	abyss-bench -fig 6 -cpuprofile cpu.out -memprofile mem.out
//	                                    # ... with pprof profiles of the run
//
// Data points execute on a worker pool (-parallel, default GOMAXPROCS);
// progress and timing go to stderr, results to stdout. Every run is
// deterministic for a given -seed: -parallel 1 and -parallel N produce
// byte-identical figure text, JSON and CSV. -json emits every point's
// full core.Result (commits, aborts, tuples, six-component cycle
// breakdown) plus run metadata; -csv flattens the same points into one
// row each. EXPERIMENTS.md documents what every experiment reproduces
// and the exact command for each.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (inspect with `go tool pprof`), so hot-path hunts start
// from measurement instead of guesswork; the heap profile is written at
// exit after a final GC, capturing live retention rather than churn.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"abyss1000/bench"
	"abyss1000/cmd/internal/cli"
)

func main() {
	var (
		figID    = flag.String("fig", "", fmt.Sprintf("experiment id to run (one of: %s)", strings.Join(bench.IDs(), ", ")))
		tableID  = flag.Int("table", 0, "print table N (1 or 2)")
		all      = flag.Bool("all", false, "run every experiment")
		full     = flag.Bool("full", false, "paper scale (1024 cores); default is quick scale")
		list     = flag.Bool("list", false, "list experiments")
		seed     = flag.Int64("seed", 42, "determinism seed")
		cores    = flag.Int("maxcores", 0, "override the top of the core ladder")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for data points; 1 = serial")
		jsonOut  = flag.Bool("json", false, "emit the run as JSON on stdout (suppresses figure text)")
		csvOut   = flag.Bool("csv", false, "emit every data point as a CSV row on stdout (suppresses figure text)")
		quiet    = flag.Bool("quiet", false, "suppress progress reporting on stderr")
		verify   = flag.Bool("verify", false, "after the figures, print one verdict per claim the experiments make (text output only)")
		logAcc   = flag.Bool("log", false, "attach an accounting-only write-ahead log to every data point: throughput/abort series stay byte-identical to an unlogged run (the schedule is unchanged); breakdown tables gain the Log component's share")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to `file`")
		memProf  = flag.String("memprofile", "", "write a heap profile to `file` at exit")
	)
	flag.Parse()

	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "abyss-bench: -json and -csv are mutually exclusive")
		os.Exit(2)
	}
	if *verify && (*jsonOut || *csvOut) {
		fmt.Fprintln(os.Stderr, "abyss-bench: -verify prints text; it does not combine with -json or -csv")
		os.Exit(2)
	}
	if (*jsonOut || *csvOut) && (*list || *tableID != 0) {
		fmt.Fprintln(os.Stderr, "abyss-bench: -json/-csv apply to experiment runs (-fig, -all), not -list/-table")
		os.Exit(2)
	}

	params := bench.Quick()
	scale := "quick"
	if *full {
		params = bench.Full()
		scale = "full"
	}
	params.Seed = *seed
	params.LogAccounting = *logAcc
	if *cores > 0 {
		params.MaxCores = *cores
		scale = "custom"
	}

	switch {
	case *list:
		for _, e := range bench.Registry {
			fmt.Printf("  -fig %-15s %s\n", e.ID, e.Desc)
		}
		return
	case *tableID == 1:
		fmt.Print(table1)
		return
	case *tableID == 2:
		fmt.Print(bench.Table2())
		return
	case *all || *figID != "":
		var experiments []bench.Experiment
		if *all {
			experiments = bench.Registry
		} else {
			e, err := bench.Lookup(*figID)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			experiments = []bench.Experiment{e}
		}
		// Profiling starts only now, with every flag validated, and is
		// stopped explicitly before any exit, so a usage error or a
		// failed run can never leave a truncated profile behind.
		stopProfiles, err := startProfiles(*cpuProf, *memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abyss-bench:", err)
			os.Exit(1)
		}
		interrupted, err := runExperiments(experiments, params, scale, *parallel, *jsonOut, *csvOut, *quiet, *all, *verify)
		stopProfiles()
		if err != nil {
			fmt.Fprintln(os.Stderr, "abyss-bench:", err)
			os.Exit(1)
		}
		if interrupted {
			os.Exit(cli.ExitInterrupted)
		}
		return
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// startProfiles begins CPU profiling if requested and returns a function
// that finishes both requested profiles: it stops the CPU profile first,
// then writes a post-GC heap snapshot (live retention, not churn).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "abyss-bench: creating heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "abyss-bench: writing heap profile:", err)
			}
		}
	}, nil
}

// runExperiments executes the selected experiments on the worker pool and
// writes the requested output format to stdout. A SIGINT mid-sweep stops
// dispatching data points: in-flight points drain, the figures (with the
// remaining points zeroed) are still rendered, and the caller exits 130.
func runExperiments(experiments []bench.Experiment, params bench.Params, scale string, parallel int, jsonOut, csvOut, quiet, withTable2, verify bool) (interrupted bool, err error) {
	var stop atomic.Bool
	runner := &bench.Runner{Workers: parallel, Stop: &stop}
	if !quiet {
		runner.OnProgress = progressPrinter()
	}
	stopSig, _ := cli.NotifyDrain(func(os.Signal) {
		stop.Store(true)
		fmt.Fprintln(os.Stderr, "\nabyss-bench: interrupt — draining in-flight points, remaining points will be zero")
	}, os.Interrupt)

	start := time.Now()
	figs := bench.BuildAll(experiments, params, runner)
	stopSig()
	if !quiet {
		fmt.Fprintf(os.Stderr, "\r%-78s\r[%d experiments in %v, %d workers, max %d cores]\n",
			"", len(experiments), time.Since(start).Round(time.Millisecond), runner.Workers, params.MaxCores)
	}

	meta := bench.RunMeta{Paper: "Staring into the Abyss (VLDB 2014)", Scale: scale, Params: params}
	rep := bench.NewReport(meta, experiments, figs)
	if withTable2 {
		rep.Table2 = bench.Table2()
	}

	switch {
	case jsonOut:
		b, err := rep.JSON()
		if err != nil {
			return false, fmt.Errorf("encoding JSON: %w", err)
		}
		os.Stdout.Write(b)
	case csvOut:
		fmt.Print(rep.CSV())
	default:
		for _, fig := range figs {
			fmt.Print(fig.Format())
			fmt.Println()
		}
		if withTable2 {
			fmt.Print(rep.Table2)
		}
		if verify {
			for i, e := range experiments {
				for _, v := range e.Check(params, figs[i]) {
					fmt.Println(v)
				}
			}
		}
	}
	if stop.Load() {
		fmt.Fprintln(os.Stderr, "abyss-bench: interrupted — the output above is partial (undispatched points are zero)")
		return true, nil
	}
	return false, nil
}

// progressPrinter renders N/M + ETA progress lines in place on stderr.
func progressPrinter() func(bench.Progress) {
	return func(pr bench.Progress) {
		line := fmt.Sprintf("[%d/%d] %s  elapsed %v", pr.Done, pr.Total, pr.Last.Label(), pr.Elapsed.Round(time.Second))
		if pr.Remaining > 0 {
			line += fmt.Sprintf("  eta %v", pr.Remaining.Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "\r%-78s", line)
	}
}

const table1 = `== Table 1: Concurrency control schemes ==
 2PL  DL_DETECT   2PL with deadlock detection
      NO_WAIT     2PL with non-waiting deadlock prevention
      WAIT_DIE    2PL with wait-and-die deadlock prevention
 T/O  TIMESTAMP   Basic T/O algorithm
      MVCC        Multi-version T/O
      OCC         Optimistic concurrency control
      HSTORE      T/O with partition-level locking
`

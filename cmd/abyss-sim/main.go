// Command abyss-sim runs a single workload configuration on the many-core
// simulator (or natively) and prints throughput, abort rate and the
// six-component time breakdown. It is a thin shell over the public abyss
// package: schemes, workloads and timestamp methods all resolve through
// the abyss registries, so -list (or any unknown name) shows exactly what
// an embedder would get from abyss.Schemes() / abyss.Workloads().
//
// Examples:
//
//	abyss-sim -scheme NO_WAIT -cores 64 -theta 0.8
//	abyss-sim -scheme MVCC -cores 256 -readpct 0.9
//	abyss-sim -workload tpcc -scheme HSTORE -cores 64 -warehouses 64
//	abyss-sim -workload smallbank -scheme OCC -cores 64 -hotpct 0.95
//	abyss-sim -scheme DL_DETECT -runtime native -cores 8
//	abyss-sim -scheme OCC -interval 250000        # live per-interval lines
//	abyss-sim -workload smallbank -scheme MVCC -hist
//	                                              # latency histogram + per-txn table
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"abyss1000/abyss"
	"abyss1000/bench"
	"abyss1000/cmd/internal/cli"

	// Register the chaos fuzz workload and the SmallBank and TATP
	// extensions.
	_ "abyss1000/workloads/chaos"
	_ "abyss1000/workloads/smallbank"
	_ "abyss1000/workloads/tatp"
)

func main() {
	var (
		schemeName = flag.String("scheme", "NO_WAIT", "concurrency-control scheme (see -list)")
		workload   = flag.String("workload", "ycsb", "workload (see -list)")
		runtimeSel = flag.String("runtime", "sim", "sim|native")
		cores      = flag.Int("cores", 64, "logical cores / worker threads")
		seed       = flag.Int64("seed", 42, "determinism seed")
		tsMethod   = flag.String("ts", "atomic", "timestamp allocation method (see -list)")
		list       = flag.Bool("list", false, "list registered schemes, workloads and timestamp methods")

		// YCSB knobs.
		rows    = flag.Int("rows", 0, "YCSB table size")
		theta   = flag.Float64("theta", -1, "YCSB zipf skew, in [0, 1)")
		readPct = flag.Float64("readpct", -1, "fraction of reads, in [0, 1]")
		reqs    = flag.Int("reqs", 0, "accesses per transaction")
		part    = flag.Bool("partitioned", false, "partitioned YCSB (needed for HSTORE)")
		mpFrac  = flag.Float64("mp", -1, "multi-partition txn fraction, in [0, 1]")

		// TPC-C knobs.
		warehouses = flag.Int("warehouses", 0, "TPC-C warehouses")
		payPct     = flag.Float64("paypct", -1, "fraction of Payment txns, in [0, 1]")
		mixName    = flag.String("mix", "", "TPC-C transaction mix: paper (Payment+NewOrder) or full (all five types)")

		subscribers = flag.Int("subscribers", 0, "TATP subscriber count")

		// SmallBank knobs.
		accounts = flag.Int("accounts", 0, "SmallBank customer count")
		hot      = flag.Int("hot", 0, "SmallBank hotspot size (customers)")
		hotPct   = flag.Float64("hotpct", -1, "fraction of accesses hitting the hotspot, in [0, 1]")

		warmup  = flag.Uint64("warmup", 0, "warmup cycles, ns if native (default 300000 cycles, or 5 ms if native: the DB's DefaultRunConfig)")
		measure = flag.Uint64("measure", 0, "measurement cycles, ns if native (default 1500000 cycles, or 50 ms if native: the DB's DefaultRunConfig)")

		// Correctness knobs.
		check = flag.Bool("check", false, "capture the run's transaction history and verify serializability plus final-state equivalence; non-zero exit and a repro line on failure")

		// Observability knobs.
		interval = flag.Uint64("interval", 0, "print a live throughput/abort/latency line every N cycles of the measurement window (0 disables)")
		hist     = flag.Bool("hist", false, "dump the commit-latency histogram and per-transaction-type results after the run")

		// Overload knobs (open-loop arrivals, admission control, deadlines,
		// retry budgets, fault injection).
		arrivals   = flag.String("arrivals", "", "open-loop arrival process: poisson:<tps> or mmpp:<calm_tps>:<burst_tps>[:<calm_dwell>:<burst_dwell>], dwells in cycles or as durations like 200us (empty keeps the paper's closed loop)")
		qdepth     = flag.Int("qdepth", 0, "bound each worker's admission queue at this depth; arrivals past the bound are shed (0 = unbounded; needs -arrivals)")
		shedTypes  = flag.String("shed-types", "", "comma-separated transaction type names to shed first when an admission queue passes its high-water mark (needs -arrivals)")
		deadline   = flag.Uint64("deadline", 0, "abandon a transaction not committed within this many cycles of its arrival (0 disables)")
		retryLimit = flag.Int("retry", 0, "abandon a transaction after this many failed attempts (0 = unlimited retries)")
		backoffCap = flag.Uint64("backoff-cap", 0, "cap for exponential abort backoff: the mean doubles per attempt from the base up to this (0 keeps the fixed base)")
		faultSpec  = flag.String("fault", "", "comma-separated fault injectors: stall:<worker>:<from>:<until>, slowpart:<first>:<count>:<extra>[:<from>:<until>], spike:<period>:<duration>")

		// Durability knobs.
		walDest    = flag.String("wal", "", "write-ahead log destination: 'mem' or a file path (empty disables durability)")
		crashAfter = flag.Int64("crash-after", -1, "inject a crash: tear the log at this byte offset and fail it thereafter (negative disables)")
		doRecover  = flag.Bool("recover", false, "after the run, replay the log onto a fresh DB and verify the recovered state")
		doCkpt     = flag.Bool("checkpoint", false, "append a checkpoint to the log after the run (recovery then starts from it)")
		dumpPath   = flag.String("dump", "", "write the committed-state dump to this file ('-' for stdout)")
	)
	flag.Parse()

	if *list {
		printLists()
		return
	}

	method, err := abyss.ParseTSMethod(*tsMethod)
	if err != nil {
		fail(err)
	}

	// Durability setup: pick the sink, optionally wrapped with a byte-
	// offset fault point that tears the stream like a machine crash. The
	// log mode follows the runtime: native workers wait for their group's
	// fsync; simulated ones log for accounting only.
	var (
		dur     *abyss.Durability
		memSink *abyss.MemLogSink
		walPath string
	)
	if *crashAfter >= 0 && *walDest == "" {
		fail(fmt.Errorf("abyss-sim: -crash-after needs -wal"))
	}
	if (*doRecover || *doCkpt) && *walDest == "" {
		fail(fmt.Errorf("abyss-sim: -recover and -checkpoint need -wal"))
	}
	if *walDest != "" {
		var sink abyss.LogSink
		if *walDest == "mem" {
			memSink = abyss.NewMemLogSink()
			sink = memSink
		} else {
			walPath = *walDest
			fs, err := abyss.CreateLogFile(walPath)
			if err != nil {
				fail(err)
			}
			sink = fs
		}
		if *crashAfter >= 0 {
			sink = abyss.NewFaultLogSink(sink, *crashAfter)
		}
		dur = &abyss.Durability{Sink: sink, Async: *runtimeSel == abyss.RuntimeNative}
	}

	db, err := abyss.Open(abyss.Options{Runtime: *runtimeSel, Cores: *cores, Seed: *seed, Durability: dur})
	if err != nil {
		fail(err)
	}
	rc := db.DefaultRunConfig()
	if flagGiven("warmup") {
		rc.WarmupCycles = *warmup
	}
	if flagGiven("measure") {
		rc.MeasureCycles = *measure
	}

	params, err := abyss.DefaultWorkloadParams(*workload)
	if err != nil {
		fail(err)
	}
	// Negative/zero flag sentinels mean "keep the workload default";
	// explicit values are range-checked here so a typo'd flag fails fast
	// with the limits in the message rather than as garbage output.
	if err := applyPct(&params.ReadPct, *readPct, "-readpct"); err != nil {
		fail(err)
	}
	if *theta >= 0 {
		if *theta >= 1 {
			fail(fmt.Errorf("abyss-sim: -theta must be in [0, 1), got %g", *theta))
		}
		params.Theta = *theta
	}
	if err := applyPct(&params.MPFraction, *mpFrac, "-mp"); err != nil {
		fail(err)
	}
	if err := applyPct(&params.PaymentPct, *payPct, "-paypct"); err != nil {
		fail(err)
	}
	if err := applyPct(&params.HotPct, *hotPct, "-hotpct"); err != nil {
		fail(err)
	}
	if *rows > 0 {
		params.Rows = *rows
	}
	if *reqs > 0 {
		params.ReqPerTxn = *reqs
	}
	if *warehouses > 0 {
		params.Warehouses = *warehouses
	}
	if *mixName != "" {
		// Validated by the tpcc builder, which lists the valid mixes on
		// an unknown value.
		params.Mix = *mixName
	}
	if *subscribers > 0 {
		params.Subscribers = *subscribers
	}
	if *accounts > 0 {
		params.Accounts = *accounts
	}
	if *hot > 0 {
		params.HotAccounts = *hot
	}
	params.Partitioned = *part || *schemeName == "HSTORE"
	if *workload == "tpcc" {
		params.InsertsPerWorker = bench.TPCCInsertsPerWorker(rc.WarmupCycles + rc.MeasureCycles)
	}

	if flagGiven("interval") && *interval == 0 {
		fail(fmt.Errorf("abyss-sim: -interval must be a positive cycle count (omit the flag to disable sampling)"))
	}

	wl, err := db.BuildWorkload(*workload, params)
	if err != nil {
		fail(err)
	}
	scheme, err := abyss.NewScheme(*schemeName, abyss.WithTSMethod(method))
	if err != nil {
		fail(err)
	}
	// The arrival stream reuses the run seed; no -arrivals keeps the
	// closed loop.
	var arr abyss.Arrivals
	if *arrivals != "" {
		if arr, err = abyss.ParseArrivals(*arrivals, *seed); err != nil {
			fail(err)
		}
	}
	fault, err := parseFaults(*faultSpec)
	if err != nil {
		fail(err)
	}
	rc.SampleEvery = *interval
	rc.Check = *check
	rc.Arrivals = arr
	rc.QueueDepth = *qdepth
	rc.ShedTypes = *shedTypes
	rc.Deadline = *deadline
	rc.RetryLimit = *retryLimit
	rc.BackoffCap = *backoffCap
	rc.Fault = fault

	var res abyss.Result
	if *interval > 0 {
		samples, wait := db.RunStream(scheme, wl, rc)
		if streamSamples(samples, rc.MeasureCycles, db) {
			// Interrupted: the workers were asked to drain; partial
			// results were printed. Exit non-zero so scripts can tell a
			// cut-short run from a completed one.
			os.Exit(cli.ExitInterrupted)
		}
		res, err = wait()
	} else {
		// A plain run drains gracefully on SIGINT too: the handler flips
		// the DB's stop flag, every worker finishes its current
		// transaction, and Run returns the partial window.
		stopSig, _ := cli.NotifyDrain(func(os.Signal) { db.Interrupt() }, os.Interrupt)
		res, err = db.Run(scheme, wl, rc)
		stopSig()
	}
	if err != nil {
		fail(err)
	}
	fmt.Println(res.String())
	if arr.Open() {
		printOverload(&res)
	}
	if *hist {
		printHistogram(&res)
	}
	if db.Interrupted() {
		fmt.Println("interrupted: partial window (results above cover the cycles served before the stop)")
		os.Exit(cli.ExitInterrupted)
	}

	if *check {
		rep, err := db.CheckSerializability()
		if err != nil {
			fail(err)
		}
		if !rep.OK() {
			fmt.Printf("serializability check: FAIL\n%s\n", rep)
			fmt.Printf("repro: abyss-sim -check -workload %s -scheme %s -runtime %s -cores %d -seed %d -warmup %d -measure %d\n",
				*workload, *schemeName, *runtimeSel, *cores, *seed, rc.WarmupCycles, rc.MeasureCycles)
			os.Exit(1)
		}
		fmt.Printf("serializability check: PASS (%d txns, %d edges)\n", rep.Txns, rep.Edges)
	}

	if db.Durable() {
		if *doCkpt {
			if err := db.Checkpoint(); err != nil && *crashAfter < 0 {
				fail(fmt.Errorf("abyss-sim: checkpoint: %w", err))
			}
		}
		if err := db.CloseLog(); err != nil && *crashAfter < 0 {
			fail(fmt.Errorf("abyss-sim: closing log: %w", err))
		}
		records, bytes, syncs := db.LogStats()
		fmt.Printf("wal: %d records, %d bytes, %d syncs", records, bytes, syncs)
		if err := db.LogErr(); err != nil {
			fmt.Printf("  [log died: %v]", err)
		}
		fmt.Println()
	}
	if *dumpPath != "" {
		writeDump(*dumpPath, db.StateDump())
	}
	if *doRecover {
		stream := logStream(memSink, walPath)
		runRecovery(db, stream, *runtimeSel, *cores, *seed, *workload, params, *crashAfter >= 0)
	}
}

// streamSamples prints live per-interval lines until the channel closes
// or the user interrupts. On SIGINT it asks the run to drain (so the
// workers stop cleanly and the sample channel closes after the partial
// window), prints a partial summary, and reports true.
func streamSamples(samples <-chan abyss.Sample, measure uint64, db *abyss.DB) (interrupted bool) {
	stopSig, fired := cli.NotifyDrain(func(os.Signal) { db.Interrupt() }, os.Interrupt)
	defer stopSig()
	var (
		commits, aborts, cycles uint64
		lat                     abyss.Histogram
	)
	printLine := func(s abyss.Sample) {
		commits += s.Commits
		aborts += s.Aborts
		cycles = s.EndCycle
		lat.Merge(&s.Latency)
		fmt.Printf("[%*d/%d] %12.0f txn/s  abort %5.1f%%  p50 %6d  p99 %8d cyc\n",
			len(fmt.Sprint(measure)), s.EndCycle, measure,
			s.Throughput(), s.AbortFraction()*100, s.Latency.P50(), s.Latency.P99())
	}
	for s := range samples {
		printLine(s)
	}
	if !fired() {
		return false
	}
	total := commits + aborts
	abortPct := 0.0
	if total > 0 {
		abortPct = 100 * float64(aborts) / float64(total)
	}
	fmt.Printf("\ninterrupted at %d/%d cycles: %d commits, %d aborts (%.1f%%), p50 %d, p99 %d cyc (partial)\n",
		cycles, measure, commits, aborts, abortPct, lat.P50(), lat.P99())
	return true
}

// logStream returns the captured WAL bytes: the memory sink's buffer, or
// the log file's contents.
func logStream(memSink *abyss.MemLogSink, walPath string) []byte {
	if memSink != nil {
		return memSink.Bytes()
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		fail(fmt.Errorf("abyss-sim: reading log back: %w", err))
	}
	return data
}

// runRecovery replays stream onto a freshly built copy of the workload's
// database and verifies the recovered state: with an intact log it must
// equal the live DB's committed state exactly; with an injected crash the
// recovered state is the durable prefix (a mismatch with the live state
// is then expected, and only the replay itself must succeed).
func runRecovery(live *abyss.DB, stream []byte, runtimeSel string, cores int, seed int64, workload string, params abyss.WorkloadParams, crashed bool) {
	fresh, err := abyss.Open(abyss.Options{Runtime: runtimeSel, Cores: cores, Seed: seed})
	if err != nil {
		fail(err)
	}
	if _, err := fresh.BuildWorkload(workload, params); err != nil {
		fail(err)
	}
	info, err := fresh.Recover(stream)
	if err != nil {
		fail(fmt.Errorf("abyss-sim: recovery failed: %w", err))
	}
	fmt.Printf("recovered: %d records (%d torn bytes dropped), checkpoint %d, %d commits, %d updates, %d inserts\n",
		info.Records, info.TornBytes, info.Checkpoint, info.Commits, info.Updates, info.Inserts)
	if crashed {
		fmt.Println("recovery OK (crash injected: recovered the durable prefix)")
		return
	}
	if fresh.StateDump() != live.StateDump() {
		fail(fmt.Errorf("abyss-sim: recovered state DIVERGES from the live committed state"))
	}
	fmt.Println("recovery VERIFIED: recovered state equals the live committed state")
}

// writeDump writes the committed-state dump to path ('-' for stdout).
func writeDump(path, dump string) {
	if path == "-" {
		fmt.Print(dump)
		return
	}
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		fail(fmt.Errorf("abyss-sim: writing dump: %w", err))
	}
}

// printHistogram dumps the run's commit-latency histogram and, when the
// workload declares transaction types, the per-type sub-results.
func printHistogram(res *abyss.Result) {
	fmt.Printf("\ncommit latency (cycles): p50 %d  p95 %d  p99 %d  max %d  mean %.1f  (n=%d)\n",
		res.Latency.P50(), res.Latency.P95(), res.Latency.P99(),
		res.Latency.Max(), res.Latency.Mean(), res.Latency.Count())
	var peak uint64
	for i := 0; i < abyss.NumHistBuckets; i++ {
		if c := res.Latency.Bucket(i); c > peak {
			peak = c
		}
	}
	for i := 0; i < abyss.NumHistBuckets; i++ {
		c := res.Latency.Bucket(i)
		if c == 0 {
			continue
		}
		lo, hi := abyss.HistBucketBounds(i)
		bar := strings.Repeat("#", int(40*c/peak))
		fmt.Printf("  [%12d, %12d) %10d %s\n", lo, hi, c, bar)
	}
	if len(res.PerTxn) == 0 {
		return
	}
	fmt.Printf("\n%-18s %10s %10s %8s %8s %10s\n", "transaction", "commits", "aborts", "p50", "p99", "max")
	for i := range res.PerTxn {
		t := &res.PerTxn[i]
		fmt.Printf("%-18s %10d %10d %8d %8d %10d\n",
			t.Name, t.Commits, t.Aborts, t.Latency.P50(), t.Latency.P99(), t.Latency.Max())
	}
}

// parseFaults parses the -fault flag: comma-separated injector specs,
// composed with ComposeFaults when more than one is given.
func parseFaults(spec string) (abyss.FaultInjector, error) {
	if spec == "" {
		return nil, nil
	}
	var faults []abyss.FaultInjector
	for _, one := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(one), ":")
		nums := make([]uint64, 0, len(parts)-1)
		for _, p := range parts[1:] {
			n, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("abyss-sim: -fault %q: bad number %q", one, p)
			}
			nums = append(nums, n)
		}
		switch parts[0] {
		case "stall":
			if len(nums) != 3 {
				return nil, fmt.Errorf("abyss-sim: -fault stall:<worker>:<from>:<until>, got %q", one)
			}
			faults = append(faults, abyss.StalledWorkerFault(int(nums[0]), nums[1], nums[2]))
		case "slowpart":
			if len(nums) != 3 && len(nums) != 5 {
				return nil, fmt.Errorf("abyss-sim: -fault slowpart:<first>:<count>:<extra>[:<from>:<until>], got %q", one)
			}
			var from, until uint64
			if len(nums) == 5 {
				from, until = nums[3], nums[4]
			}
			faults = append(faults, abyss.SlowPartitionFault(int(nums[0]), int(nums[1]), nums[2], from, until))
		case "spike":
			if len(nums) != 2 {
				return nil, fmt.Errorf("abyss-sim: -fault spike:<period>:<duration>, got %q", one)
			}
			faults = append(faults, abyss.LatencySpikeFault(nums[0], nums[1]))
		default:
			return nil, fmt.Errorf("abyss-sim: unknown fault %q (stall, slowpart or spike)", parts[0])
		}
	}
	if len(faults) == 1 {
		return faults[0], nil
	}
	return abyss.ComposeFaults(faults...), nil
}

// printOverload summarizes an open-loop run's overload accounting:
// offered vs goodput, shed and deadlined counts, and the admission-queue
// depth distribution.
func printOverload(res *abyss.Result) {
	fmt.Printf("overload: offered %.0f txn/s  goodput %.0f txn/s  shed %d (%.1f%%)  deadlined %d  qdepth p50 %d max %d\n",
		res.OfferedTPS(), res.Throughput(), res.Shed, res.ShedFraction()*100,
		res.Deadlined, res.QueueDepth.P50(), res.QueueDepth.Max())
}

// flagGiven reports whether the named flag was set on the command line.
func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			given = true
		}
	})
	return given
}

// applyPct overrides *dst with v when the flag was given (v >= 0),
// rejecting values outside [0, 1].
func applyPct(dst *float64, v float64, flagName string) error {
	if v < 0 {
		return nil
	}
	if v > 1 {
		return fmt.Errorf("abyss-sim: %s must be in [0, 1], got %g", flagName, v)
	}
	*dst = v
	return nil
}

func printLists() {
	fmt.Println("schemes:")
	for _, info := range abyss.SchemeInfos() {
		fmt.Printf("  -scheme %-12s %s\n", info.Name, info.Desc)
	}
	fmt.Println("workloads:")
	for _, info := range abyss.WorkloadInfos() {
		fmt.Printf("  -workload %-10s %s\n", info.Name, info.Desc)
	}
	fmt.Printf("timestamp methods:\n  -ts %s\n", strings.Join(abyss.TSMethodNames(), "|"))
	fmt.Printf("runtimes:\n  -runtime %s\n", strings.Join(abyss.Runtimes(), "|"))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

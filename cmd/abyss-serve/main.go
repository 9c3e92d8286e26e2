// Command abyss-serve is the networked front door: it opens the engine on
// the native runtime, starts a serving session, and exposes stored-
// procedure invocation over the compact binary TCP protocol (-tcp), with
// operations endpoints GET /stats and GET /healthz on HTTP (-http).
// Backpressure is the engine's admission machinery — bounded
// per-worker queues and request deadlines — with TCP flow control on
// each connection past a fixed number of unanswered requests.
//
// On SIGTERM or SIGINT it drains gracefully: stops accepting, refuses new
// requests, finishes everything admitted, flushes the WAL if durability
// is on, prints the serving summary, and exits 0.
//
// Examples:
//
//	abyss-serve -scheme NO_WAIT -cores 8
//	abyss-serve -scheme HSTORE -cores 4 -qdepth 256 -deadline 5ms
//	abyss-serve -scheme MVCC -cores 8 -wal /tmp/abyss.wal
//	abyss-serve -workload smallbank -cores 4   (then abyss-load -proc Balance)
package main

import (
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"abyss1000/abyss"
	"abyss1000/cmd/internal/cli"
	"abyss1000/serve"

	// Register the chaos fuzz workload and the SmallBank and TATP
	// extensions.
	_ "abyss1000/workloads/chaos"
	_ "abyss1000/workloads/smallbank"
	_ "abyss1000/workloads/tatp"
)

func main() {
	var (
		httpAddr   = flag.String("http", "127.0.0.1:8080", "ops endpoints: /stats, /healthz (HTTP listen address; empty disables)")
		tcpAddr    = flag.String("tcp", "127.0.0.1:9090", "binary-protocol listen address (empty disables)")
		schemeName = flag.String("scheme", "NO_WAIT", "concurrency-control scheme")
		workload   = flag.String("workload", "ycsb", "workload backing anonymous draws and named procedures (ycsb, tpcc, smallbank, tatp, chaos)")
		cores      = flag.Int("cores", 4, "native worker threads (= routable partitions)")
		seed       = flag.Int64("seed", 42, "determinism seed")

		// Workload knobs (zero/negative keeps the registry default).
		rows    = flag.Int("rows", 0, "YCSB table size")
		theta   = flag.Float64("theta", -1, "YCSB zipf skew, in [0, 1)")
		readPct = flag.Float64("readpct", -1, "fraction of reads, in [0, 1]")
		part    = flag.Bool("partitioned", false, "partitioned YCSB layout (always on under HSTORE, whatever the other workload flags)")

		// Admission knobs.
		qdepth   = flag.Int("qdepth", 0, "per-worker admission queue depth (0 = default)")
		deadline = flag.Duration("deadline", 0, "default per-request deadline (0 = none; clients override per request)")
		retry    = flag.Int("retry", 0, "abandon a request after this many failed attempts (0 = unlimited)")
		backoff  = flag.Duration("backoff", 0, "mean randomized restart penalty after an abort (0 = none until a transaction aborts 8 times in a row)")
		bcap     = flag.Duration("backoff-cap", 0, "cap for exponential abort backoff (0 = fixed mean)")

		// Durability knob.
		walPath = flag.String("wal", "", "write-ahead log file (empty disables durability)")
	)
	flag.Parse()

	var dur *abyss.Durability
	if *walPath != "" {
		sink, err := abyss.CreateLogFile(*walPath)
		if err != nil {
			fail(err)
		}
		dur = &abyss.Durability{Sink: sink, Async: true}
	}

	var params *abyss.WorkloadParams
	if *rows > 0 || *theta >= 0 || *readPct >= 0 || *part {
		p, err := abyss.DefaultWorkloadParams(*workload)
		if err != nil {
			fail(err)
		}
		if *rows > 0 {
			p.Rows = *rows
		}
		if *theta >= 0 {
			p.Theta = *theta
		}
		if *readPct >= 0 {
			p.ReadPct = *readPct
		}
		if *part {
			p.Partitioned = true
		}
		params = &p
	}

	srv, err := serve.New(serve.Config{
		Scheme:   *schemeName,
		Workload: *workload,
		Params:   params,
		Cores:    *cores,
		Seed:     *seed,
		Session: abyss.RunConfig{
			QueueDepth:   *qdepth,
			Deadline:     cycles("deadline", *deadline),
			RetryLimit:   *retry,
			AbortBackoff: cycles("backoff", *backoff),
			BackoffCap:   cycles("backoff-cap", *bcap),
		},
		Durability: dur,
	})
	if err != nil {
		fail(err)
	}
	if err := srv.Start(*httpAddr, *tcpAddr); err != nil {
		fail(err)
	}
	if a := srv.HTTPAddr(); a != "" {
		fmt.Printf("abyss-serve: http on %s\n", a)
	}
	if a := srv.TCPAddr(); a != "" {
		fmt.Printf("abyss-serve: binary on %s\n", a)
	}
	fmt.Printf("abyss-serve: scheme %s, workload %s, %d cores — SIGTERM drains\n",
		*schemeName, *workload, *cores)

	// Block until the drain completes: the signal handler shuts the
	// server down (graceful drain, WAL flush) and drained tells main the
	// final Result is ready. Graceful drain is the intended exit, so
	// SIGTERM/SIGINT exit 0 here — unlike the measurement binaries,
	// where an interrupt truncates the run and exits 130.
	drained := make(chan struct{})
	var (
		res      abyss.Result
		drainErr error
	)
	stopSig, _ := cli.NotifyDrain(func(s os.Signal) {
		fmt.Fprintf(os.Stderr, "abyss-serve: %v — draining\n", s)
		res, drainErr = srv.Shutdown()
		close(drained)
	}, syscall.SIGTERM, os.Interrupt)
	<-drained
	stopSig()
	if drainErr != nil {
		fail(drainErr)
	}

	fmt.Printf("served offered=%d commits=%d shed=%d deadlined=%d span=%s goodput_tps=%.1f\n",
		res.Offered, res.Commits, res.Shed, res.Deadlined,
		time.Duration(res.MeasureCycles), res.Throughput())
}

// cycles converts a duration flag to native-runtime cycles (one per
// nanosecond), refusing a negative value rather than wrapping it.
func cycles(flagName string, d time.Duration) uint64 {
	if d < 0 {
		fail(fmt.Errorf("-%s must not be negative, got %v", flagName, d))
	}
	return uint64(d)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "abyss-serve:", err)
	os.Exit(1)
}

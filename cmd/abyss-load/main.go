// Command abyss-load is the remote load generator: it drives an
// abyss-serve front door over the binary protocol (its -tcp address) with
// open-loop Poisson or MMPP arrivals across N connections, and reports
// offered-vs-goodput plus wire-latency percentiles. Open loop means
// arrivals do not wait for replies, so the server can be pushed past its
// knee: past saturation the report shows goodput flattening while
// shed_server grows.
//
// The summary line's key=value fields are stable API for scripts:
//
//	offered= sent= committed= user_aborts= deadlined= shed_server=
//	shed_client= rejected= closed= errors= elapsed_s= offered_tps=
//	goodput_tps= wire_p50_us= wire_p99_us=
//
// Examples:
//
//	abyss-load -addr 127.0.0.1:9090 -arrivals poisson:20000 -duration 5s
//	abyss-load -addr 127.0.0.1:9090 -conns 4 -arrivals poisson:2000
//	abyss-load -addr 127.0.0.1:9090 -arrivals mmpp:5000:50000:200ms:50ms -deadline 10ms
package main

import (
	"flag"
	"fmt"
	"os"

	"abyss1000/abyss"
	"abyss1000/serve/client"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9090", "server binary-protocol address (abyss-serve -tcp)")
		conns      = flag.Int("conns", 8, "connection count (arrival rate splits evenly)")
		window     = flag.Int("window", 0, "per-connection client window; arrivals past it are shed_client (0 = default)")
		arrivals   = flag.String("arrivals", "poisson:10000", "offered load: poisson:RATE or mmpp:CALMRATE:BURSTRATE[:CALMDWELL:BURSTDWELL], dwells as durations like 200ms or in nanoseconds")
		duration   = flag.Duration("duration", 5e9, "how long to offer arrivals")
		proc       = flag.String("proc", "", "procedure to invoke (empty = anonymous workload draw)")
		partitions = flag.Int("partitions", 0, "route round-robin across this many partitions (0 = unrouted)")
		deadline   = flag.Duration("deadline", 0, "per-request deadline (0 = server default)")
		seed       = flag.Int64("seed", 42, "arrival-stream seed")
	)
	flag.Parse()

	spec, err := abyss.ParseArrivals(*arrivals, *seed)
	if err != nil {
		fail(err)
	}

	rep, err := client.Run(client.LoadConfig{
		Addr:       *addr,
		Conns:      *conns,
		Window:     *window,
		Arrival:    spec,
		Duration:   *duration,
		Proc:       *proc,
		Partitions: *partitions,
		Deadline:   *deadline,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(rep.Summary())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "abyss-load:", err)
	os.Exit(1)
}

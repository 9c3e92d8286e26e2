// Remote: the serve tier end to end, in process. The example embeds an
// abyss-serve front door (serve.New + Start on loopback), talks to it
// first as an application would — one connection, routed requests,
// per-request deadlines, an unknown procedure — and then as an operator
// would, driving the open-loop load generator at two offered loads to
// find the goodput knee over the wire. The same thing works across
// machines with the cmd/abyss-serve and cmd/abyss-load binaries; this
// example is the library form of that walkthrough.
package main

import (
	"fmt"
	"log"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

func main() {
	// An engine on 2 native cores behind bounded admission queues. Every
	// invocation that cannot commit within 50ms of arrival — including
	// time spent queued — comes back "deadlined" instead of lingering.
	// The session is a RunConfig; on the native runtime a cycle is a
	// nanosecond.
	srv, err := serve.New(serve.Config{
		Scheme:   "NO_WAIT",
		Workload: "ycsb",
		Cores:    2,
		Seed:     42,
		Session:  abyss.RunConfig{QueueDepth: 64, Deadline: uint64(50 * time.Millisecond)},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving: http %s, binary %s\n", srv.HTTPAddr(), srv.TCPAddr())

	// One application connection over the binary protocol: anonymous
	// workload draws (the server picks the next YCSB transaction),
	// routed and deadline-carrying requests.
	conn, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		log.Fatal(err)
	}
	for _, req := range []serve.InvokeRequest{
		{Partition: -1}, // unrouted draw
		{Partition: 1},  // routed to partition 1
		{Partition: -1, Deadline: 10 * time.Millisecond}, // tighter deadline
		{Proc: "no-such-procedure", Partition: -1},       // rejected, never executed
	} {
		rep, err := conn.Invoke(req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("invoke proc=%q partition=%d -> %s in %v\n",
			req.Proc, req.Partition, serve.OutcomeName(rep.Outcome), rep.Elapsed.Round(time.Microsecond))
	}
	conn.Close()

	// The operator's view: open-loop load at two offered rates. Below
	// the knee goodput tracks offered load; far past it the server sheds
	// at its bounded admission queues and goodput plateaus at engine
	// capacity instead of collapsing.
	for _, rate := range []float64{2_000, 500_000} {
		rep, err := client.Run(client.LoadConfig{
			Addr:     srv.TCPAddr(),
			Conns:    4,
			Arrival:  abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: rate, Seed: 7},
			Duration: time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("offered %.0f tps: %s\n", rate, rep.Summary())
	}

	// Graceful drain: everything admitted finishes, then the session's
	// final Result closes the ledger — offered = commits + shed +
	// deadlined across every connection that ever talked to the server.
	res, err := srv.Shutdown()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drained: offered=%d commits=%d shed=%d deadlined=%d goodput=%.0f tps\n",
		res.Offered, res.Commits, res.Shed, res.Deadlined, res.Throughput())
}

package client

import (
	"strings"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
)

// TestParseArrivalSpec pins the one -arrivals grammar from the load
// generator's side (abyss-load and abyss-sim share abyss.ParseArrivals):
// calm before burst in rates and dwells alike, each dwell a duration or
// a bare cycle count — a nanosecond on this package's clock — and the
// three-part form's default dwells.
func TestParseArrivalSpec(t *testing.T) {
	spec, err := abyss.ParseArrivals("poisson:5000", 9)
	if want := (abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: 5000, Seed: 9}); err != nil || spec != want {
		t.Fatalf("poisson spec = %+v, %v", spec, err)
	}
	want := abyss.Arrivals{
		Process: abyss.ArrivalMMPP, RateTPS: 1000, BurstRateTPS: 8000,
		CalmCycles: uint64(200 * time.Millisecond), BurstCycles: uint64(50 * time.Millisecond), Seed: 9,
	}
	// abyss-load's spelling, abyss-sim's, and a mix of the two.
	for _, s := range []string{"mmpp:1000:8000:200ms:50ms", "mmpp:1000:8000:200000000:50000000", "mmpp:1000:8000:200ms:50000000"} {
		if spec, err = abyss.ParseArrivals(s, 9); err != nil || spec != want {
			t.Fatalf("ParseArrivals(%q) = %+v, %v; want %+v", s, spec, err, want)
		}
	}
	spec, err = abyss.ParseArrivals("mmpp:1000:8000", 9)
	if err != nil || spec.CalmCycles != 500_000 || spec.BurstCycles != 50_000 {
		t.Fatalf("three-part mmpp = %+v, %v; want the 500000/50000-cycle default dwells", spec, err)
	}
	for _, bad := range []string{
		"", "uniform:5", "poisson", "poisson:x", "poisson:-3", "poisson:1:2", "poisson:inf",
		"mmpp:1:2:3", "mmpp:0:8:1s:1s", "mmpp:1:8:0:1s", "mmpp:1:8:-1s:1s", "mmpp:1:8:soon:1s",
		"mmpp:1000:inf", "mmpp:inf:1000",
	} {
		if _, err := abyss.ParseArrivals(bad, 9); err == nil {
			t.Fatalf("ParseArrivals(%q) accepted", bad)
		}
	}
}

// TestArrivalGenDeterminism pins a connection's arrival stream: equal
// (Arrival, connection, Conns) offer the identical monotone sequence, and
// the sequence is the one this package's own generator produced before
// the engine's replaced it.
func TestArrivalGenDeterminism(t *testing.T) {
	spec := abyss.Arrivals{
		Process: abyss.ArrivalMMPP, RateTPS: 1000, BurstRateTPS: 8000,
		CalmCycles: uint64(10 * time.Millisecond), BurstCycles: uint64(5 * time.Millisecond), Seed: 42,
	}
	a := abyss.NewArrivalStream(spec, 1, 4, float64(time.Second))
	b := abyss.NewArrivalStream(spec, 1, 4, float64(time.Second))
	pinned := []uint64{629001, 683449, 869936, 1063995, 2292860, 2646292, 3285627, 4348656}
	var last uint64
	for i := 0; i < 1000; i++ {
		x, y := a.Take(), b.Take()
		if x != y {
			t.Fatalf("arrival %d diverged: %v vs %v", i, x, y)
		}
		if x < last {
			t.Fatalf("arrival %d moved backwards: %v after %v", i, x, last)
		}
		if i < len(pinned) && x != pinned[i] {
			t.Fatalf("arrival %d = %d ns, pinned %d", i, x, pinned[i])
		}
		last = x
	}
}

func TestLoadRunLedger(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Scheme:   "NO_WAIT",
		Workload: "ycsb",
		Cores:    2,
		Seed:     11,
		Session:  abyss.RunConfig{QueueDepth: 256},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start("", "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	rep, err := Run(LoadConfig{
		Addr:     srv.TCPAddr(),
		Conns:    2,
		Window:   32,
		Arrival:  abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: 2000, Seed: 7},
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Offered == 0 || rep.Committed == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	// The client ledger closes.
	accounted := rep.Committed + rep.UserAborts + rep.Deadlined + rep.ShedServer +
		rep.Rejected + rep.Closed + rep.Errors
	if rep.Sent != accounted {
		t.Fatalf("sent = %d but %d accounted: %+v", rep.Sent, accounted, rep)
	}
	if rep.Offered != rep.Sent+rep.ShedClient {
		t.Fatalf("offered = %d, sent+shed_client = %d", rep.Offered, rep.Sent+rep.ShedClient)
	}
	if rep.Wire.Count() != rep.Committed+rep.UserAborts {
		t.Fatalf("wire histogram count = %d, want %d", rep.Wire.Count(), rep.Committed+rep.UserAborts)
	}
	// And it agrees with the server's: every sent request is in the
	// engine's offered count (queue sheds included).
	res, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if res.Offered != rep.Sent {
		t.Fatalf("server Offered = %d, client sent %d", res.Offered, rep.Sent)
	}
	if res.Commits != rep.Committed+rep.UserAborts || res.Shed != rep.ShedServer || res.Deadlined != rep.Deadlined {
		t.Fatalf("server result %d/%d/%d vs client %d/%d/%d",
			res.Commits, res.Shed, res.Deadlined,
			rep.Committed+rep.UserAborts, rep.ShedServer, rep.Deadlined)
	}
	// Summary carries the stable keys scripts grep for.
	sum := rep.Summary()
	for _, key := range []string{"offered=", "sent=", "committed=", "deadlined=", "shed_server=", "shed_client=", "goodput_tps=", "wire_p50_us=", "wire_p99_us="} {
		if !strings.Contains(sum, key) {
			t.Fatalf("Summary missing %q: %s", key, sum)
		}
	}
}

func TestLoadRunValidation(t *testing.T) {
	poisson := abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: 1}
	bad := []LoadConfig{
		{},
		{Addr: "x", Conns: 0, Duration: time.Second, Arrival: poisson},
		{Addr: "x", Conns: 1, Window: -1, Duration: time.Second, Arrival: poisson},
		{Addr: "x", Conns: 1, Duration: 0, Arrival: poisson},
		{Addr: "x", Conns: 1, Duration: time.Second}, // closed loop offers nothing
		{Addr: "x", Conns: 1, Duration: time.Second, Arrival: abyss.Arrivals{Process: abyss.ArrivalPoisson}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

package serve_test

// Wire-level conformance: binary clients against every paper scheme on the
// native runtime, asserting the serving ledger closes — per-connection
// response counts sum exactly to the drained Result.Commits + Shed +
// Deadlined. Run under -race in CI.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
	"abyss1000/workloads/smallbank"
	"abyss1000/workloads/tatp"
)

func startServer(t *testing.T, scheme string, cores int, sc abyss.RunConfig) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Scheme:   scheme,
		Workload: "ycsb",
		Cores:    cores,
		Seed:     11,
		Session:  sc,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv
}

// tally buckets every wire response a client saw.
type tally struct {
	committed, userAborts, deadlined, shed, other uint64
}

func (a *tally) add(b tally) {
	a.committed += b.committed
	a.userAborts += b.userAborts
	a.deadlined += b.deadlined
	a.shed += b.shed
	a.other += b.other
}

func (a *tally) observe(rep serve.InvokeReply) {
	switch rep.Outcome {
	case serve.WireCommitted:
		a.committed++
	case serve.WireUserAbort:
		a.userAborts++
	case serve.WireDeadlined:
		a.deadlined++
	case serve.WireShed:
		a.shed++
	default:
		a.other++
	}
}

func TestBinaryClientsAllSchemes(t *testing.T) {
	const conns, per = 4, 25
	for _, scheme := range abyss.PaperSchemes() {
		t.Run(scheme, func(t *testing.T) {
			srv := startServer(t, scheme, 2, abyss.RunConfig{QueueDepth: 256})
			var (
				mu    sync.Mutex
				total tally
				wg    sync.WaitGroup
			)
			for i := 0; i < conns; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := client.DialBinary(srv.TCPAddr())
					if err != nil {
						t.Errorf("conn %d: %v", i, err)
						return
					}
					defer c.Close()
					var local tally
					for j := 0; j < per; j++ {
						req := serve.InvokeRequest{Partition: -1}
						if j%3 == 0 {
							req.Partition = j % 2 // route a third of the stream
						}
						rep, err := c.Invoke(req)
						if err != nil {
							t.Errorf("conn %d invoke %d: %v", i, j, err)
							return
						}
						local.observe(rep)
					}
					mu.Lock()
					total.add(local)
					mu.Unlock()
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				srv.Shutdown()
				return
			}
			res, err := srv.Shutdown()
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if total.other != 0 {
				t.Fatalf("unexpected outcomes: %+v", total)
			}
			responses := total.committed + total.userAborts + total.deadlined + total.shed
			if responses != conns*per {
				t.Fatalf("responses = %d, want %d", responses, conns*per)
			}
			// The ledger must close: every response the clients saw is in
			// exactly one engine counter.
			if got := res.Commits + res.Shed + res.Deadlined; got != responses {
				t.Fatalf("Commits+Shed+Deadlined = %d, want %d (%+v vs result %d/%d/%d)",
					got, responses, total, res.Commits, res.Shed, res.Deadlined)
			}
			if res.Commits != total.committed+total.userAborts {
				t.Fatalf("Result.Commits = %d, clients saw %d committed + %d user aborts",
					res.Commits, total.committed, total.userAborts)
			}
			if res.Shed != total.shed {
				t.Fatalf("Result.Shed = %d, clients saw %d shed", res.Shed, total.shed)
			}
			if res.Deadlined != total.deadlined {
				t.Fatalf("Result.Deadlined = %d, clients saw %d deadlined", res.Deadlined, total.deadlined)
			}
			if res.Offered != conns*per {
				t.Fatalf("Result.Offered = %d, want %d", res.Offered, conns*per)
			}
			// Shutdown is idempotent: same Result again.
			res2, err := srv.Shutdown()
			if err != nil || res2.Commits != res.Commits || res2.MeasureCycles != res.MeasureCycles ||
				res2.Offered != res.Offered || res2.Shed != res.Shed {
				t.Fatalf("second Shutdown diverged: %v", err)
			}
		})
	}
}

func TestWireDeadlinePropagates(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.RunConfig{QueueDepth: 16})
	defer srv.Shutdown()
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rep, err := c.Invoke(serve.InvokeRequest{Partition: -1, Deadline: time.Nanosecond})
	c.Close()
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if rep.Outcome != serve.WireDeadlined {
		t.Fatalf("1ns-deadline outcome = %s, want deadlined", serve.OutcomeName(rep.Outcome))
	}
}

// TestStatsAndHealth checks the HTTP listener's two ops endpoints, and
// that it serves nothing else: invocations go over the binary protocol.
func TestStatsAndHealth(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.RunConfig{QueueDepth: 16})
	defer srv.Shutdown()
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if rep, err := c.Invoke(serve.InvokeRequest{Partition: -1}); err != nil || rep.Outcome != serve.WireCommitted {
		t.Fatalf("invoke = %+v, %v", rep, err)
	}
	c.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/stats", srv.HTTPAddr()))
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var stats struct {
		Scheme   string `json:"scheme"`
		Offered  uint64 `json:"offered"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	resp.Body.Close()
	if stats.Scheme != "NO_WAIT" || stats.Offered != 1 || stats.Draining {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/healthz", srv.HTTPAddr()))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %v, %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Post(fmt.Sprintf("http://%s/invoke", srv.HTTPAddr()), "application/json", strings.NewReader(`{"partition":-1}`))
	if err != nil {
		t.Fatalf("POST /invoke: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /invoke = %d, want 404 or 405", resp.StatusCode)
	}
	if got := srv.Session().Counters(); got.Offered != 1 {
		t.Fatalf("offered = %d after one binary invoke, want 1", got.Offered)
	}
}

func TestBadRequestsRejected(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.RunConfig{QueueDepth: 16})
	defer srv.Shutdown()
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rep, err := c.Invoke(serve.InvokeRequest{Proc: "no-such-proc", Partition: -1})
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if rep.Outcome != serve.WireRejected {
		t.Fatalf("unknown proc outcome = %s, want rejected", serve.OutcomeName(rep.Outcome))
	}
	// Rejections never reach the engine: the ledger stays clean.
	if got := srv.Session().Counters(); got.Offered != 0 {
		t.Fatalf("rejected request counted as offered: %+v", got)
	}
}

// TestNamedProceduresOverTheWire: a binary client names every SmallBank
// and TATP procedure, and each comes back committed or user-aborted,
// never rejected.
func TestNamedProceduresOverTheWire(t *testing.T) {
	for _, tc := range []struct {
		workload string
		params   abyss.WorkloadParams
		procs    []string
	}{
		{"smallbank", abyss.WorkloadParams{Accounts: 1024, HotAccounts: 16, HotPct: 0.5}, smallbank.Procedures},
		{"tatp", abyss.WorkloadParams{Subscribers: 1000, InsertsPerWorker: 64}, tatp.Procedures},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			srv, err := serve.New(serve.Config{
				Scheme: "NO_WAIT", Workload: tc.workload, Params: &tc.params,
				Cores: 2, Seed: 3, Session: abyss.RunConfig{QueueDepth: 16},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := srv.Start("", "127.0.0.1:0"); err != nil {
				t.Fatalf("Start: %v", err)
			}
			defer srv.Shutdown()
			c, err := client.DialBinary(srv.TCPAddr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			for _, proc := range tc.procs {
				rep, err := c.Invoke(serve.InvokeRequest{Proc: proc, Partition: -1})
				if err != nil {
					t.Fatalf("invoke %s: %v", proc, err)
				}
				if rep.Outcome != serve.WireCommitted && rep.Outcome != serve.WireUserAbort {
					t.Errorf("%s outcome = %s, want committed or user_abort", proc, serve.OutcomeName(rep.Outcome))
				}
			}
		})
	}
}

// TestHSTOREWithExplicitParams builds H-STORE on YCSB with explicit
// Params, as abyss-serve does once -rows is given: the partitioned layout
// H-STORE needs must be forced whether or not Params are supplied, so
// every invocation commits.
func TestHSTOREWithExplicitParams(t *testing.T) {
	const n = 40
	params, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	params.Rows = 4096
	srv, err := serve.New(serve.Config{
		Scheme:   "HSTORE",
		Workload: "ycsb",
		Params:   &params,
		Cores:    2,
		Seed:     11,
		Session:  abyss.RunConfig{QueueDepth: 64},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start("", "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		srv.Shutdown()
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < n; i++ {
		rep, err := c.Invoke(serve.InvokeRequest{Partition: i%3 - 1})
		if err != nil || rep.Outcome != serve.WireCommitted {
			c.Close()
			srv.Shutdown()
			t.Fatalf("invoke %d: outcome %s, err %v; want committed", i, serve.OutcomeName(rep.Outcome), err)
		}
	}
	c.Close()
	res, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if res.Commits != n {
		t.Fatalf("Result.Commits = %d, want %d", res.Commits, n)
	}
}

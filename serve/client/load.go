package client

// The remote load generator: N connections, each offering its share of an
// open-loop arrival stream. Open loop means arrivals do not wait for
// replies — a request fires at its arrival instant whether or not earlier
// ones answered. The only client-side bound is the per-connection window:
// an arrival finding the window full is counted shed_client and never
// sent, so the client cannot itself queue unbounded goroutines when the
// server saturates. (The server stops reading a connection with 64
// requests unanswered, so a larger window queues the rest in TCP.)

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
)

// defaultWindow bounds each connection's unanswered requests when
// LoadConfig.Window is zero.
const defaultWindow = 64

// LoadConfig configures one load run.
type LoadConfig struct {
	// Addr is the server's binary-protocol address (host:port).
	Addr string

	// Conns is the connection count; the aggregate arrival rate is
	// split evenly across them.
	Conns int

	// Window bounds each connection's unanswered requests; arrivals past
	// it are counted shed_client and not sent. Zero means 64.
	Window int

	// Arrival is the offered-load process, aggregate across connections:
	// the engine's own Arrivals (see abyss.ParseArrivals), on a
	// nanosecond clock — MMPP dwell "cycles" are nanoseconds here. It
	// must be open loop. Connection i draws stream i of Conns from
	// abyss.NewArrivalStream, so Arrival.Seed makes the offered sequence
	// reproducible.
	Arrival abyss.Arrivals

	// Duration is how long arrivals are offered; the run then waits for
	// outstanding replies.
	Duration time.Duration

	// Proc names the procedure to invoke ("" = anonymous workload
	// draw).
	Proc string

	// Partitions, when positive, routes requests round-robin across
	// partitions [0, Partitions); otherwise requests are unrouted.
	Partitions int

	// Deadline rides each request (zero = server default).
	Deadline time.Duration
}

func (c LoadConfig) validate() error {
	if c.Addr == "" {
		return fmt.Errorf("client: LoadConfig.Addr is required")
	}
	if c.Conns <= 0 {
		return fmt.Errorf("client: LoadConfig.Conns must be positive, got %d", c.Conns)
	}
	if c.Window < 0 {
		return fmt.Errorf("client: LoadConfig.Window must not be negative, got %d", c.Window)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("client: LoadConfig.Duration must be positive, got %v", c.Duration)
	}
	if !c.Arrival.Open() {
		return fmt.Errorf("client: LoadConfig.Arrival must be an open-loop process (ArrivalPoisson or ArrivalMMPP)")
	}
	if err := c.Arrival.Validate(); err != nil {
		return fmt.Errorf("client: LoadConfig.Arrival: %w", err)
	}
	return nil
}

// Report is one load run's ledger. Offered = Sent + ShedClient, and every
// sent request lands in exactly one of the reply counters, so
//
//	Offered = Committed + UserAborts + Deadlined + ShedServer
//	        + Rejected + Closed + Errors + ShedClient.
type Report struct {
	Offered    uint64 `json:"offered"`     // arrivals generated
	Sent       uint64 `json:"sent"`        // requests put on the wire
	Committed  uint64 `json:"committed"`   // WireCommitted replies
	UserAborts uint64 `json:"user_aborts"` // WireUserAbort replies
	Deadlined  uint64 `json:"deadlined"`   // WireDeadlined replies
	ShedServer uint64 `json:"shed_server"` // WireShed replies (a full admission queue)
	ShedClient uint64 `json:"shed_client"` // arrivals dropped at a full client window
	Rejected   uint64 `json:"rejected"`    // WireRejected replies
	Closed     uint64 `json:"closed"`      // WireClosed replies (server draining)
	Errors     uint64 `json:"errors"`      // transport failures

	// Elapsed is the wall span from first arrival offered to last reply.
	Elapsed time.Duration `json:"elapsed_ns"`

	// Wire is the round-trip wire latency histogram, in nanoseconds,
	// over committed and user-abort replies (completed work).
	Wire abyss.Histogram `json:"wire_ns"`
}

// GoodputTPS is committed transactions per wall second.
func (r Report) GoodputTPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// OfferedTPS is generated arrivals per wall second.
func (r Report) OfferedTPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Elapsed.Seconds()
}

// Summary renders the one-line key=value form consumed by scripts and CI:
// keys are stable API.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d sent=%d committed=%d user_aborts=%d deadlined=%d",
		r.Offered, r.Sent, r.Committed, r.UserAborts, r.Deadlined)
	fmt.Fprintf(&b, " shed_server=%d shed_client=%d rejected=%d closed=%d errors=%d",
		r.ShedServer, r.ShedClient, r.Rejected, r.Closed, r.Errors)
	fmt.Fprintf(&b, " elapsed_s=%.3f offered_tps=%.1f goodput_tps=%.1f",
		r.Elapsed.Seconds(), r.OfferedTPS(), r.GoodputTPS())
	fmt.Fprintf(&b, " wire_p50_us=%.1f wire_p99_us=%.1f",
		float64(r.Wire.P50())/1e3, float64(r.Wire.Quantile(0.99))/1e3)
	return b.String()
}

// connReport is one connection's ledger, merged after the run.
type connReport struct {
	Report
	err error
}

// Run drives one load run and blocks until every outstanding request
// answered (or failed). A connection that cannot dial fails the run;
// transport errors after dialing are counted, not fatal.
func Run(cfg LoadConfig) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	window := cfg.Window
	if window == 0 {
		window = defaultWindow
	}

	conns := make([]Conn, cfg.Conns)
	for i := range conns {
		c, err := DialBinary(cfg.Addr)
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return Report{}, fmt.Errorf("client: dialing connection %d: %w", i, err)
		}
		conns[i] = c
	}

	reports := make([]connReport, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = driveConn(cfg, conns[i], i, window, start)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, c := range conns {
		c.Close()
	}

	var out Report
	out.Elapsed = elapsed
	for i := range reports {
		r := &reports[i]
		out.Offered += r.Offered
		out.Sent += r.Sent
		out.Committed += r.Committed
		out.UserAborts += r.UserAborts
		out.Deadlined += r.Deadlined
		out.ShedServer += r.ShedServer
		out.ShedClient += r.ShedClient
		out.Rejected += r.Rejected
		out.Closed += r.Closed
		out.Errors += r.Errors
		out.Wire.Merge(&r.Wire)
	}
	return out, nil
}

// driveConn offers one connection's arrival stream, open loop: each
// arrival fires at its instant on its own goroutine; a full window sheds
// the arrival client-side instead of queueing it.
func driveConn(cfg LoadConfig, conn Conn, idx, window int, start time.Time) connReport {
	var rep connReport
	gen := abyss.NewArrivalStream(cfg.Arrival, idx, cfg.Conns, float64(time.Second))
	sem := make(chan struct{}, window)
	var (
		mu      sync.Mutex // guards the reply counters and histogram
		replies sync.WaitGroup
	)
	seq := 0
	for {
		at := time.Duration(gen.Take())
		if at > cfg.Duration {
			break
		}
		time.Sleep(time.Until(start.Add(at)))
		rep.Offered++
		select {
		case sem <- struct{}{}:
		default:
			rep.ShedClient++
			continue
		}
		req := serve.InvokeRequest{
			Proc:      cfg.Proc,
			Partition: -1,
			Deadline:  cfg.Deadline,
		}
		if cfg.Partitions > 0 {
			req.Partition = (idx + seq) % cfg.Partitions
		}
		seq++
		rep.Sent++
		replies.Add(1)
		go func(req serve.InvokeRequest) {
			defer replies.Done()
			defer func() { <-sem }()
			sent := time.Now()
			reply, err := conn.Invoke(req)
			wire := time.Since(sent)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rep.Errors++
				return
			}
			switch reply.Outcome {
			case serve.WireCommitted:
				rep.Committed++
				rep.Wire.Record(uint64(wire))
			case serve.WireUserAbort:
				rep.UserAborts++
				rep.Wire.Record(uint64(wire))
			case serve.WireDeadlined:
				rep.Deadlined++
			case serve.WireShed:
				rep.ShedServer++
			case serve.WireClosed:
				rep.Closed++
			default:
				rep.Rejected++
			}
		}(req)
	}
	replies.Wait()
	return rep
}

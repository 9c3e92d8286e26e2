// Package serve is the networked front door to the abyss engine: it
// exposes a Session (stored-procedure invocation on the native runtime)
// over a compact binary TCP protocol, and serves operations endpoints
// (GET /stats, GET /healthz) on an optional HTTP listener.
//
// Backpressure is the engine's own admission machinery, reached through
// the network:
//
//   - per-worker admission queues (Config.Session.QueueDepth): requests
//     routed to a full queue are shed by the session (WireShed);
//   - per-request deadlines, carried in each request frame to the
//     engine's deadline semantics — a request that cannot commit in
//     budget comes back "deadlined", even if it never executed;
//   - TCP flow control: a connection stops being read while it has a
//     fixed number of requests unanswered or unflushed.
//
// Every shed is the session's, so the drained Result satisfies offered =
// commits + shed + deadlined across the whole serving stack.
//
// Graceful drain: Shutdown (the SIGTERM path in cmd/abyss-serve) stops
// accepting connections, refuses new requests with "closed", lets every
// admitted request finish, flushes each connection's replies, and
// returns the final Result. Construct with New, bind with Start.
package serve

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/abyss"
)

// Config assembles a server: the engine (scheme, workload, cores, seed,
// durability) and the session's admission tuning.
type Config struct {
	// Scheme names the concurrency-control scheme (abyss.SchemeNames).
	Scheme string

	// Workload names the registered workload; Params overrides its
	// knobs (nil means registry defaults). Under HSTORE, YCSB is forced
	// to its partitioned layout either way.
	Workload string
	Params   *abyss.WorkloadParams

	// Cores is the native worker count — equivalently the partition
	// count requests can route to.
	Cores int

	// Seed drives the engine's deterministic streams.
	Seed int64

	// Session configures the serving run; abyss.DB.Serve lists the
	// fields it honours (queue depth, default deadline, retry budget,
	// backoff, Check).
	Session abyss.RunConfig

	// Durability, when non-nil, attaches a write-ahead log; Shutdown
	// flushes and closes it after the drain.
	Durability *abyss.Durability
}

// Server is one serving instance: an engine session plus up to two
// listeners (binary TCP for invocations, HTTP for operations).
type Server struct {
	cfg     Config
	db      *abyss.DB
	session *abyss.Session

	httpLn  net.Listener
	tcpLn   net.Listener
	httpSrv *http.Server

	draining  atomic.Bool
	accepting chan struct{}  // closed when the binary accept loop returns
	conns     sync.Map       // open binary connections -> *connState
	connWG    sync.WaitGroup // binary connection readers and writers

	shutdownOnce sync.Once
	result       abyss.Result
	shutdownErr  error
}

// New opens the engine and starts the serving session; the server is not
// reachable until Start binds listeners.
func New(cfg Config) (*Server, error) {
	db, err := abyss.Open(abyss.Options{
		Runtime:    abyss.RuntimeNative,
		Cores:      cfg.Cores,
		Seed:       cfg.Seed,
		Durability: cfg.Durability,
	})
	if err != nil {
		return nil, err
	}
	var params abyss.WorkloadParams
	if cfg.Params != nil {
		params = *cfg.Params
	} else if params, err = abyss.DefaultWorkloadParams(cfg.Workload); err != nil {
		return nil, err
	}
	if strings.EqualFold(cfg.Scheme, "HSTORE") && cfg.Workload == "ycsb" {
		// H-STORE requires the partitioned YCSB layout, exactly as the
		// paper's harness configures it, with or without explicit Params.
		params.Partitioned = true
	}
	wl, err := db.BuildWorkload(cfg.Workload, params)
	if err != nil {
		return nil, err
	}
	scheme, err := abyss.NewScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	session, err := db.Serve(scheme, wl, cfg.Session)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, db: db, session: session}, nil
}

// Session exposes the underlying session (tests and embedders).
func (s *Server) Session() *abyss.Session { return s.session }

// Start binds the requested listeners ("" skips one; at least one is
// required) and begins serving. Addresses may use port 0; HTTPAddr and
// TCPAddr report the bound addresses.
func (s *Server) Start(httpAddr, tcpAddr string) error {
	if httpAddr == "" && tcpAddr == "" {
		return fmt.Errorf("serve: Start needs at least one listen address")
	}
	if httpAddr != "" {
		if err := s.startHTTP(httpAddr); err != nil {
			return err
		}
	}
	if tcpAddr != "" {
		if err := s.startTCP(tcpAddr); err != nil {
			if s.httpLn != nil {
				s.httpLn.Close()
			}
			return err
		}
	}
	return nil
}

// HTTPAddr returns the bound HTTP address, or "" without an HTTP
// listener.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// TCPAddr returns the bound binary-protocol address, or "" without a
// TCP listener.
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// reply maps a session invocation's result onto the wire: the one
// error-to-outcome-byte mapping.
func reply(elapsed time.Duration, err error) InvokeReply {
	switch err {
	case nil:
		return InvokeReply{Outcome: WireCommitted, Elapsed: elapsed}
	case abyss.ErrUserAbort:
		return InvokeReply{Outcome: WireUserAbort, Elapsed: elapsed}
	case abyss.ErrDeadline:
		return InvokeReply{Outcome: WireDeadlined, Elapsed: elapsed}
	case abyss.ErrShed:
		return InvokeReply{Outcome: WireShed}
	case abyss.ErrSessionClosed:
		return InvokeReply{Outcome: WireClosed}
	default:
		return InvokeReply{Outcome: WireRejected}
	}
}

// invocation maps a wire request onto the session's Invocation:
// partition -1 is unrouted, and one below it is refused.
func invocation(req InvokeRequest) (abyss.Invocation, error) {
	inv := abyss.Invocation{Proc: req.Proc, Deadline: req.Deadline}
	switch {
	case req.Partition >= 0:
		inv.Routed = true
		inv.Partition = req.Partition
	case req.Partition < -1:
		return inv, fmt.Errorf("serve: partition must be -1 (unrouted) or a worker index, got %d", req.Partition)
	}
	return inv, nil
}

// Shutdown drains gracefully: stop accepting, drain the session (every
// admitted request finishes and later ones are refused), flush each
// connection's replies and close it, close the WAL if one is attached,
// and return the final Result. A client that has stopped reading its
// replies holds Shutdown up by two seconds at most. Idempotent; every
// call returns the same Result. This is the SIGTERM path.
func (s *Server) Shutdown() (abyss.Result, error) {
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		if s.tcpLn != nil {
			s.tcpLn.Close()
			<-s.accepting
		}
		// Drain returns once every admitted request's done has run, so
		// every reply is framed into its connection's output buffer.
		s.result, s.shutdownErr = s.session.Drain()
		s.conns.Range(func(key, _ any) bool {
			// Its reader stops and waits for the replies to be written.
			conn := key.(*connState).conn
			conn.SetReadDeadline(time.Now())
			conn.SetWriteDeadline(time.Now().Add(flushGrace))
			return true
		})
		s.connWG.Wait()
		s.stopHTTP()
		if s.shutdownErr == nil && s.db.Durable() {
			s.shutdownErr = s.db.CloseLog()
		}
	})
	return s.result, s.shutdownErr
}

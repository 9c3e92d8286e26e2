// Package serve is the networked front door to the abyss engine: it
// exposes a Session (stored-procedure invocation on the native runtime)
// over HTTP/1.1 JSON and a compact binary TCP protocol, with wire-level
// backpressure layered on the engine's admission machinery.
//
// Backpressure maps onto three nested bounds:
//
//   - per-connection inflight windows (Config.Window): a binary
//     connection with Window requests outstanding has further requests
//     answered SHED immediately, without touching the engine (an HTTP
//     connection never has more than one);
//   - per-worker admission queues (Config.Session.QueueDepth): requests
//     routed to a full queue are shed by the session (HTTP 429);
//   - per-request deadlines, propagated from client headers/fields to
//     the engine's deadline semantics — a request that cannot commit in
//     budget comes back "deadlined", even if it never executed.
//
// Every shed, wherever it happens, is folded into the drained
// Result.Shed, so offered = commits + shed + deadlined holds across the
// whole serving stack.
//
// Graceful drain: Shutdown (the SIGTERM path in cmd/abyss-serve) stops
// accepting connections, refuses new requests with "closed", lets every
// admitted request finish and flush its reply, drains the session, and
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

// DefaultWindow bounds each connection's inflight requests when
// Config.Window is zero.
const DefaultWindow = 64

// Config assembles a server: the engine (scheme, workload, cores, seed,
// durability), the session's admission tuning, and the wire-level
// window.
type Config struct {
	// Scheme names the concurrency-control scheme (abyss.SchemeNames).
	Scheme string

	// Workload names the registered workload; Params overrides its
	// knobs (nil means registry defaults, with YCSB forced to its
	// partitioned layout under HSTORE).
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

	// Window bounds each binary connection's inflight requests;
	// overflow is answered SHED without reaching the engine. Zero means
	// DefaultWindow.
	Window int

	// Durability, when non-nil, attaches a write-ahead log; Shutdown
	// flushes and closes it after the drain.
	Durability *abyss.Durability
}

// Server is one serving instance: an engine session plus up to two
// listeners (HTTP and binary TCP).
type Server struct {
	cfg     Config
	window  int
	db      *abyss.DB
	session *abyss.Session

	httpLn  net.Listener
	tcpLn   net.Listener
	httpSrv *http.Server

	draining atomic.Bool
	admit    sync.RWMutex   // orders admission against the drain flag flip
	inflight sync.WaitGroup // admitted binary dispatches awaiting replies
	conns    sync.Map       // open binary connections -> *connState
	connWG   sync.WaitGroup // binary connection reader loops

	shutdownOnce sync.Once
	result       abyss.Result
	shutdownErr  error
}

// New opens the engine and starts the serving session; the server is not
// reachable until Start binds listeners.
func New(cfg Config) (*Server, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("serve: Config.Cores must be positive, got %d", cfg.Cores)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("serve: Config.Window must not be negative, got %d", cfg.Window)
	}
	db, err := abyss.Open(abyss.Options{
		Runtime:    abyss.RuntimeNative,
		Cores:      cfg.Cores,
		Seed:       cfg.Seed,
		Durability: cfg.Durability,
	})
	if err != nil {
		return nil, err
	}
	params := abyss.WorkloadParams{}
	if cfg.Params != nil {
		params = *cfg.Params
	} else {
		params, err = abyss.DefaultWorkloadParams(cfg.Workload)
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(cfg.Scheme, "HSTORE") && cfg.Workload == "ycsb" {
			// H-STORE requires the partitioned YCSB layout, exactly as
			// the paper's harness configures it.
			params.Partitioned = true
		}
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
	w := cfg.Window
	if w == 0 {
		w = DefaultWindow
	}
	return &Server{cfg: cfg, window: w, db: db, session: session}, nil
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
		return InvokeReply{Outcome: WireRejected, Err: err.Error()}
	}
}

// invoke routes one wire request through the session.
func (s *Server) invoke(req InvokeRequest) InvokeReply {
	inv := abyss.Invocation{Proc: req.Proc, Args: req.Args, Deadline: req.Deadline}
	if req.Partition >= 0 {
		inv.Routed = true
		inv.Partition = req.Partition
	}
	return reply(s.session.Invoke(inv))
}

// Shutdown drains gracefully: stop accepting, refuse new requests,
// finish and flush everything admitted, drain the session, close the
// WAL if one is attached, and return the final Result. Idempotent;
// every call returns the same Result. This is the SIGTERM path.
func (s *Server) Shutdown() (abyss.Result, error) {
	s.shutdownOnce.Do(func() {
		// The admission lock orders the flag flip against inflight.Add:
		// every admission either predates the flip (and is counted
		// before Wait) or observes draining and refuses.
		s.admit.Lock()
		s.draining.Store(true)
		s.admit.Unlock()
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		// Admitted binary dispatches finish against the still-serving
		// session and write their replies before connections close.
		s.inflight.Wait()
		s.conns.Range(func(key, _ any) bool {
			key.(*connState).close()
			return true
		})
		s.connWG.Wait()
		s.stopHTTP()
		s.result, s.shutdownErr = s.session.Drain()
		if s.shutdownErr == nil && s.db.Durable() {
			s.shutdownErr = s.db.CloseLog()
		}
	})
	return s.result, s.shutdownErr
}

// Elapsed-to-wall helpers shared by the transports.
func elapsedNS(d time.Duration) int64 {
	if d < 0 {
		return 0
	}
	return int64(d)
}

package serve

// The HTTP/1.1 operations listener. It invokes nothing: transactions
// arrive only over the binary protocol (tcp.go).
//
//	GET /stats    — session-side admission counters and identity.
//	GET /healthz  — liveness (200 "ok", 503 once draining).

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"
)

func (s *Server) startHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.httpLn = ln
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go s.httpSrv.Serve(ln)
	return nil
}

// stopHTTP refuses new connections and waits for in-flight handlers.
func (s *Server) stopHTTP() {
	if s.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
}

// handleStats writes the GET /stats body: the server's identity, the
// session's admission counts (its Counters tally) and whether it is
// draining.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.session.Counters()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"scheme":   s.cfg.Scheme,
		"workload": s.cfg.Workload,
		"cores":    s.cfg.Cores,
		"offered":  c.Offered,
		"shed":     c.Shed,
		"draining": s.draining.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok"))
}

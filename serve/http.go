package serve

// The HTTP/1.1 JSON transport.
//
//	POST /invoke   — one invocation; JSON body (proc, args, partition,
//	                 deadline_ns), deadline also accepted as an
//	                 Abyss-Deadline header (Go duration string, wins
//	                 over the body). Every response, success or not,
//	                 carries the JSON reply shape {outcome, elapsed_ns,
//	                 error?}; backpressure maps to status codes: 429
//	                 shed, 503 draining, 400 rejected.
//	GET  /stats    — session-side admission counters and identity.
//	GET  /healthz  — liveness (200 "ok", 503 once draining).
//
// net/http serves one request per HTTP/1.1 connection at a time,
// pipelined requests included, so a connection never has more than one
// request in flight; each handler blocks in Session.Invoke. Admission
// queues and deadlines apply as on the binary transport.

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
	mux.HandleFunc("POST /invoke", s.handleInvoke)
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

// writeReply renders the uniform JSON reply with the outcome-derived
// status code.
func writeReply(w http.ResponseWriter, rep InvokeReply) {
	status := http.StatusOK
	switch rep.Outcome {
	case WireShed:
		status = http.StatusTooManyRequests
	case WireClosed:
		status = http.StatusServiceUnavailable
	case WireRejected:
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(httpReply{
		Outcome:   OutcomeName(rep.Outcome),
		ElapsedNS: max(int64(rep.Elapsed), 0),
		Error:     rep.Err,
	})
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	var body httpRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxFrame)).Decode(&body); err != nil {
		writeReply(w, InvokeReply{Outcome: WireRejected, Err: "bad JSON body: " + err.Error()})
		return
	}
	req := InvokeRequest{
		Proc:      body.Proc,
		Args:      body.Args,
		Partition: -1,
		Deadline:  time.Duration(body.DeadlineNS),
	}
	if body.Partition != nil {
		req.Partition = *body.Partition
	}
	if h := r.Header.Get("Abyss-Deadline"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil {
			writeReply(w, InvokeReply{Outcome: WireRejected, Err: "bad Abyss-Deadline header: " + err.Error()})
			return
		}
		req.Deadline = d
	}
	inv, err := invocation(req)
	if err != nil {
		writeReply(w, reply(0, err))
		return
	}
	writeReply(w, reply(s.session.Invoke(inv)))
}

// statsReply is the GET /stats body.
type statsReply struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Offered  uint64 `json:"offered"`
	Shed     uint64 `json:"shed"`
	Draining bool   `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.session.Counters()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsReply{
		Scheme:   s.cfg.Scheme,
		Workload: s.cfg.Workload,
		Cores:    s.cfg.Cores,
		Offered:  c.Offered,
		Shed:     c.Shed,
		Draining: s.draining.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok"))
}

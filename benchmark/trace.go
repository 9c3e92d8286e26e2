package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Tracing from outside: the benchmark owns every span. It wraps the public
// seams of the system — the client's Conn.Invoke, the reply's server-side
// Elapsed, a workload that wraps the real one (its Next and every Txn.Run
// attempt), and the LogSink — and records {id,parent,req,name,start,end}
// into preallocated per-goroutine buffers, so recording a span is two
// clock reads and one slice append with no lock and no allocation. Spans
// are written to benchmark/out/trace-<workload>.jsonl when the run ends.
//
// A layer's self time is its span minus the part its children cover; the
// per-layer metrics are computed from the buffers, not from the file.

// Span names. The parent chain is client.invoke > session.elapsed >
// {gen.next, txn.body} on the serve workloads and core.txn > {gen.next,
// txn.body} on native-tpcc; wal.* spans are background work with no
// request.
type spanName uint8

const (
	spanInvoke spanName = iota
	spanElapsed
	spanTxn
	spanNext
	spanBody
	spanWrite
	spanSync
)

var spanNames = [...]string{
	spanInvoke:  "client.invoke",
	spanElapsed: "session.elapsed",
	spanTxn:     "core.txn",
	spanNext:    "gen.next",
	spanBody:    "txn.body",
	spanWrite:   "wal.write",
	spanSync:    "wal.sync",
}

type span struct {
	id, parent uint64
	req        uint64
	start, end int64 // ns since the trace set's epoch
	name       spanName
}

// recorder is one goroutine's span buffer. It is not safe for concurrent
// use: every traced goroutine (caller, worker, WAL flusher) owns one.
type recorder struct {
	idBase  uint64
	spans   []span
	dropped uint64
}

// workerSpanCap sizes a worker's buffer (12 MB of spans, twice what the
// busiest traced round records today). A full buffer counts drops instead
// of growing, so a traced round never reallocates.
const workerSpanCap = 1 << 18

// maxSpansPerFile caps the written trace; the metrics use every recorded
// span, the file is for reading a request's path by eye.
const maxSpansPerFile = 100_000

// traceSet groups the recorders of one traced round under one clock epoch.
type traceSet struct {
	epoch time.Time
	recs  []*recorder
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now()} }

// newRecorder must be called before the goroutines that record start.
func (ts *traceSet) newRecorder(capacity int) *recorder {
	r := &recorder{
		idBase: uint64(len(ts.recs)+1) << 32,
		spans:  make([]span, 0, capacity),
	}
	ts.recs = append(ts.recs, r)
	return r
}

// add records one finished span and returns its id (0 when dropped).
func (r *recorder) add(name spanName, parent, req uint64, start, end int64) uint64 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := r.idBase | uint64(len(r.spans)+1)
	r.spans = append(r.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	return id
}

func (ts *traceSet) counts() (spans, dropped uint64) {
	for _, r := range ts.recs {
		spans += uint64(len(r.spans))
		dropped += r.dropped
	}
	return
}

// writeTrace writes ts to dir/trace-<workload>.jsonl. The file is capped at
// maxSpansPerFile lines, split evenly over the recorders: the k-th request
// of a run is the k-th group of spans in every buffer, so equal prefixes
// keep whole request chains together. It returns how many spans it left
// out.
func writeTrace(dir, workload string, ts *traceSet) (omitted uint64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	quota := maxSpansPerFile / max(len(ts.recs), 1)
	for _, r := range ts.recs {
		n := min(len(r.spans), quota)
		omitted += uint64(len(r.spans) - n)
		for _, s := range r.spans[:n] {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return omitted, fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return omitted, fmt.Errorf("trace: closing %s: %w", path, err)
	}
	return omitted, nil
}

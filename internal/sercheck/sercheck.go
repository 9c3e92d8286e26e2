// Package sercheck decides whether a captured transaction history is
// serializable.
//
// The input is a History: the set of committed transactions, each with
// the versions it read and the versions (and after-images) it wrote,
// plus the initial and final row images of every table. Version
// identity is per (table, slot): version 0 is the initially loaded row,
// and every committed write carries a version that is unique and
// monotonically increasing within its slot (the engine's capture layer
// guarantees this for every concurrency-control scheme).
//
// Check builds the direct serialization graph (DSG) over committed
// transactions:
//
//   - WR (reads-from): writer of version v -> each reader of v
//   - WW (version order): writer of v_i -> writer of v_{i+1}
//   - RW (anti-dependency): reader of v_i -> writer of v_{i+1}
//
// The history is serializable iff the graph is acyclic. On failure the
// report carries a minimal cycle as the counterexample. On success the
// transactions are replayed in topological order through a
// single-threaded oracle (initial images + write after-images) and the
// oracle's final state is compared against the engine's: a scheme could
// in principle produce an acyclic history and still install the wrong
// bytes, and the oracle catches that.
//
// When History.TSOrdered is set (TIMESTAMP, MVCC: schemes whose
// serialization order is their timestamp order), every edge must also run
// from a smaller Txn.TS to a larger one; an edge that does not is reported
// as an anomaly even when the graph is acyclic.
//
// The package is pure: it imports nothing from the engine and can check
// hand-constructed histories (see the negative tests for known
// anomalies such as lost update, write skew, and fractured reads).
package sercheck

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"
	"strings"
)

// EdgeKind classifies a dependency edge in the direct serialization graph.
type EdgeKind uint8

const (
	// WR is a read dependency: the target read a version the source wrote.
	WR EdgeKind = iota
	// WW is a write dependency: the target overwrote a version the
	// source wrote (adjacent in the slot's version order).
	WW
	// RW is an anti-dependency: the target overwrote a version the
	// source read.
	RW
)

func (k EdgeKind) String() string {
	switch k {
	case WR:
		return "WR"
	case WW:
		return "WW"
	case RW:
		return "RW"
	}
	return "??"
}

// Access records one read: the version of (Table, Slot) the transaction
// observed. Ver 0 is the initially loaded row.
type Access struct {
	Table int
	Slot  int
	Ver   uint64
}

// Write records one committed write: the version it installed at
// (Table, Slot) and the full row after-image.
type Write struct {
	Table int
	Slot  int
	Ver   uint64
	Image []byte
}

// Txn is one committed transaction.
type Txn struct {
	ID     int // unique per history; used in reports
	Worker int
	TS     uint64 // scheme timestamp if any; checked when History.TSOrdered
	Reads  []Access
	Writes []Write
}

// Table carries the row images the oracle replays over and compares
// against: Init is the post-population snapshot (version 0), Final is
// the engine's committed state after the run, both keyed by slot.
type Table struct {
	ID      int
	Name    string
	RowSize int
	Init    map[int][]byte
	Final   map[int][]byte
}

// History is the full input to Check.
type History struct {
	Tables []Table
	Txns   []Txn

	// TSOrdered says the scheme serializes in timestamp order (TIMESTAMP,
	// MVCC): every dependency edge must then run to a larger TS.
	TSOrdered bool
}

// Edge is one dependency in the graph; From/To are transaction IDs.
type Edge struct {
	From  int
	To    int
	Kind  EdgeKind
	Table int
	Slot  int
}

func (e Edge) String() string {
	return fmt.Sprintf("T%d -%s(t%d[%d])-> T%d", e.From, e.Kind, e.Table, e.Slot, e.To)
}

// Report is the verdict for one history.
type Report struct {
	Serializable bool   // dependency graph is acyclic
	FinalStateOK bool   // oracle replay matches the engine's final state
	Txns         int    // committed transactions checked
	Edges        int    // dependency edges in the graph
	Cycle        []Edge // minimal cycle when !Serializable
	Anomalies    []string
	Order        []int    // witness serial order (txn IDs) when Serializable
	FinalDiffs   []string // mismatching slots when !FinalStateOK
}

// OK reports whether the history passed every check.
func (r *Report) OK() bool {
	return r.Serializable && r.FinalStateOK && len(r.Anomalies) == 0
}

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("serializable: %d txns, %d edges, final state OK", r.Txns, r.Edges)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "NOT serializable: %d txns, %d edges", r.Txns, r.Edges)
	for _, a := range r.Anomalies {
		fmt.Fprintf(&b, "\n  anomaly: %s", a)
	}
	if len(r.Cycle) > 0 {
		b.WriteString("\n  cycle:")
		for _, e := range r.Cycle {
			fmt.Fprintf(&b, "\n    %s", e)
		}
	}
	for _, d := range r.FinalDiffs {
		fmt.Fprintf(&b, "\n  final state: %s", d)
	}
	return b.String()
}

type slotKey struct{ table, slot int }

// writeRef locates one committed write inside the history.
type writeRef struct {
	txn int // index into h.Txns
	ver uint64
}

// iedge is an Edge whose endpoints are txn indexes, not IDs.
type iedge struct {
	to   int
	kind EdgeKind
	key  slotKey
}

// Check builds the direct serialization graph for h and returns the
// verdict. It never mutates h.
func Check(h *History) *Report {
	r := &Report{Txns: len(h.Txns)}
	n := len(h.Txns)

	// Per-slot committed version order.
	writes := make(map[slotKey][]writeRef)
	for i := range h.Txns {
		for _, w := range h.Txns[i].Writes {
			k := slotKey{w.Table, w.Slot}
			writes[k] = append(writes[k], writeRef{txn: i, ver: w.Ver})
		}
	}
	verWriter := make(map[slotKey]map[uint64]int) // ver -> txn index
	for k, ws := range writes {
		sort.Slice(ws, func(a, b int) bool { return ws[a].ver < ws[b].ver })
		m := make(map[uint64]int, len(ws))
		for _, w := range ws {
			if w.ver == 0 {
				r.Anomalies = append(r.Anomalies,
					fmt.Sprintf("T%d wrote version 0 of t%d[%d] (reserved for the initial row)",
						h.Txns[w.txn].ID, k.table, k.slot))
				continue
			}
			if prev, dup := m[w.ver]; dup {
				r.Anomalies = append(r.Anomalies,
					fmt.Sprintf("T%d and T%d both installed version %d of t%d[%d]",
						h.Txns[prev].ID, h.Txns[w.txn].ID, w.ver, k.table, k.slot))
				continue
			}
			m[w.ver] = w.txn
		}
		verWriter[k] = m
	}

	// Graph over txn indexes; first edge per (from, to) pair is kept.
	adj := make([][]iedge, n)
	indeg := make([]int, n)
	seen := make(map[[2]int]bool)
	addEdge := func(from, to int, kind EdgeKind, k slotKey) {
		if from == to {
			return
		}
		if src, dst := &h.Txns[from], &h.Txns[to]; h.TSOrdered && dst.TS <= src.TS {
			r.Anomalies = append(r.Anomalies,
				fmt.Sprintf("T%d (ts %d) -%s(t%d[%d])-> T%d (ts %d) runs against timestamp order",
					src.ID, src.TS, kind, k.table, k.slot, dst.ID, dst.TS))
		}
		key := [2]int{from, to}
		if seen[key] {
			return
		}
		seen[key] = true
		adj[from] = append(adj[from], iedge{to: to, kind: kind, key: k})
		indeg[to]++
		r.Edges++
	}

	// WW: adjacent versions in each slot's order.
	for k, ws := range writes {
		for i := 1; i < len(ws); i++ {
			addEdge(ws[i-1].txn, ws[i].txn, WW, k)
		}
	}

	// WR and RW from each read.
	initImages := make(map[slotKey]bool)
	for _, t := range h.Tables {
		for slot := range t.Init {
			initImages[slotKey{t.ID, slot}] = true
		}
	}
	for i := range h.Txns {
		for _, rd := range h.Txns[i].Reads {
			k := slotKey{rd.Table, rd.Slot}
			if rd.Ver != 0 {
				w, ok := verWriter[k][rd.Ver]
				if !ok {
					r.Anomalies = append(r.Anomalies,
						fmt.Sprintf("T%d read version %d of t%d[%d], which no committed transaction wrote (dirty or lost read)",
							h.Txns[i].ID, rd.Ver, k.table, k.slot))
					continue
				}
				addEdge(w, i, WR, k)
			} else if !initImages[k] {
				// Version 0 of a slot that was never loaded: the row did
				// not exist before some transaction inserted it.
				r.Anomalies = append(r.Anomalies,
					fmt.Sprintf("T%d read the initial version of t%d[%d], but that slot had no initial row",
						h.Txns[i].ID, k.table, k.slot))
				continue
			}
			// RW: the writer of the next version overwrote what we read.
			ws := writes[k]
			j := sort.Search(len(ws), func(j int) bool { return ws[j].ver > rd.Ver })
			if j < len(ws) {
				addEdge(i, ws[j].txn, RW, k)
			}
		}
	}

	// Kahn's algorithm; min-heap on txn ID for a deterministic witness.
	ready := &idxHeap{h: h}
	deg := make([]int, n)
	copy(deg, indeg)
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			heap.Push(ready, i)
		}
	}
	order := make([]int, 0, n)
	for ready.Len() > 0 {
		i := heap.Pop(ready).(int)
		order = append(order, i)
		for _, e := range adj[i] {
			deg[e.to]--
			if deg[e.to] == 0 {
				heap.Push(ready, e.to)
			}
		}
	}

	if len(order) < n {
		r.Serializable = false
		r.Cycle = minimalCycle(h, adj, deg)
		return r
	}
	r.Serializable = true

	// Single-threaded oracle: replay write images in the witness order.
	r.FinalStateOK = true
	state := make(map[slotKey][]byte)
	for _, t := range h.Tables {
		for slot, img := range t.Init {
			state[slotKey{t.ID, slot}] = img
		}
	}
	for _, i := range order {
		r.Order = append(r.Order, h.Txns[i].ID)
		for _, w := range h.Txns[i].Writes {
			state[slotKey{w.Table, w.Slot}] = w.Image
		}
	}
	const maxDiffs = 10
	diff := func(msg string) {
		r.FinalStateOK = false
		if len(r.FinalDiffs) < maxDiffs {
			r.FinalDiffs = append(r.FinalDiffs, msg)
		}
	}
	for _, t := range h.Tables {
		slots := make([]int, 0, len(t.Final))
		for slot := range t.Final {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		for _, slot := range slots {
			want := t.Final[slot]
			got, ok := state[slotKey{t.ID, slot}]
			switch {
			case !ok:
				diff(fmt.Sprintf("t%d[%d]: present in engine final state but never loaded or written", t.ID, slot))
			case !bytes.Equal(got, want):
				diff(fmt.Sprintf("t%d[%d]: oracle %x != engine %x", t.ID, slot, trunc(got), trunc(want)))
			}
		}
		for slot := range t.Init {
			if _, ok := t.Final[slot]; !ok {
				diff(fmt.Sprintf("t%d[%d]: loaded initially but missing from engine final state", t.ID, slot))
			}
		}
	}
	if !r.FinalStateOK && len(r.FinalDiffs) == maxDiffs {
		r.FinalDiffs = append(r.FinalDiffs, "... (more diffs elided)")
	}
	return r
}

func trunc(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

// minimalCycle finds a shortest cycle in the subgraph of nodes Kahn
// could not remove (deg > 0): every node on a cycle is in that set
// (nodes merely downstream of a cycle are too, but BFS from those never
// returns to its start and is skipped).
func minimalCycle(h *History, adj [][]iedge, deg []int) []Edge {
	inRem := make([]bool, len(adj))
	remaining := make([]int, 0)
	for i, d := range deg {
		if d > 0 {
			remaining = append(remaining, i)
			inRem[i] = true
		}
	}
	toEdge := func(from int, e iedge) Edge {
		return Edge{
			From: h.Txns[from].ID, To: h.Txns[e.to].ID,
			Kind: e.kind, Table: e.key.table, Slot: e.key.slot,
		}
	}
	var best []Edge
	for _, s := range remaining {
		if best != nil && len(best) == 2 {
			break // a 2-cycle cannot be beaten (self-edges are excluded)
		}
		// BFS from s restricted to the remaining subgraph; the first
		// return to s closes a shortest cycle through s.
		type pedge struct {
			from int
			e    iedge
		}
		parent := make(map[int]pedge)
		visited := make([]bool, len(adj))
		visited[s] = true
		queue := []int{s}
		closed := false
	bfs:
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range adj[u] {
				if !inRem[e.to] {
					continue
				}
				if e.to == s {
					parent[s] = pedge{from: u, e: e}
					closed = true
					break bfs
				}
				if !visited[e.to] {
					visited[e.to] = true
					parent[e.to] = pedge{from: u, e: e}
					queue = append(queue, e.to)
				}
			}
		}
		if !closed {
			continue
		}
		var cycle []Edge
		at := s
		for {
			p := parent[at]
			cycle = append(cycle, toEdge(p.from, p.e))
			at = p.from
			if at == s {
				break
			}
		}
		for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
			cycle[i], cycle[j] = cycle[j], cycle[i]
		}
		if best == nil || len(cycle) < len(best) {
			best = cycle
		}
	}
	return best
}

// idxHeap is a min-heap of txn indexes ordered by public txn ID.
type idxHeap struct {
	v []int
	h *History
}

func (q *idxHeap) Len() int           { return len(q.v) }
func (q *idxHeap) Less(i, j int) bool { return q.h.Txns[q.v[i]].ID < q.h.Txns[q.v[j]].ID }
func (q *idxHeap) Swap(i, j int)      { q.v[i], q.v[j] = q.v[j], q.v[i] }
func (q *idxHeap) Push(x interface{}) { q.v = append(q.v, x.(int)) }
func (q *idxHeap) Pop() interface{} {
	old := q.v
	n := len(old)
	x := old[n-1]
	q.v = old[:n-1]
	return x
}

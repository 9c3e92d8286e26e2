// Package waitgraph implements DL_DETECT's decentralized waits-for graph
// (§4.2 "Deadlock Detection"). As in the paper's optimized design, the
// graph is partitioned across cores: each worker updates only its own edge
// list ("its thread updates its queue with the transactions that it is
// waiting for"), and cycle detection reads other workers' lists to build a
// partial graph. Because one transaction runs per worker at a time, a node
// is (worker, txn-sequence); stale edges are recognized by sequence
// mismatch, which also gives the paper's guarantee that a deadlock missed
// in one pass is found on a subsequent pass.
//
// Per-worker latches make the structure safe on the native runtime; under
// simulation they also charge the cross-core communication a detection
// pass performs.
package waitgraph

import (
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// Edge identifies the transaction a worker waits for: the target worker
// and that worker's transaction sequence number at observation time.
type Edge struct {
	Worker int
	Seq    uint64
}

// part is one worker's partition of the graph.
type part struct {
	seq   uint64 // current transaction sequence of this worker
	edges []Edge // transactions this worker's current txn waits for
}

// Graph is the partitioned waits-for graph.
type Graph struct {
	slots   []part
	latches rt.Latches // latch i guards slots[i]

	// scratch per worker for cycle search (visited stamps), sized once.
	visited [][]uint64
	stamp   []uint64
	buf     [][]Edge
}

// New creates a graph for r's workers.
func New(r rt.Runtime) *Graph {
	n := r.NumProcs()
	g := &Graph{
		slots:   make([]part, n),
		latches: r.NewLatches(0xD1<<40, slot.Fixed(n)),
		visited: make([][]uint64, n),
		stamp:   make([]uint64, n),
		buf:     make([][]Edge, n),
	}
	for i := range g.slots {
		g.visited[i] = make([]uint64, n)
	}
	return g
}

// BeginTxn advances worker p's transaction sequence (invalidating edges
// that point at its previous transaction) and returns the new sequence.
func (g *Graph) BeginTxn(p rt.Proc) uint64 {
	s := &g.slots[p.ID()]
	g.latches.Acquire(p, stats.Manager, p.ID())
	s.seq++
	seq := s.seq
	s.edges = s.edges[:0]
	g.latches.Release(p, stats.Manager, p.ID())
	return seq
}

// SetEdges publishes the set of transactions worker p currently waits for.
func (g *Graph) SetEdges(p rt.Proc, edges []Edge) {
	s := &g.slots[p.ID()]
	g.latches.Acquire(p, stats.Manager, p.ID())
	s.edges = append(s.edges[:0], edges...)
	g.latches.Release(p, stats.Manager, p.ID())
}

// ClearEdges removes worker p's outgoing edges (it stopped waiting).
func (g *Graph) ClearEdges(p rt.Proc) {
	s := &g.slots[p.ID()]
	g.latches.Acquire(p, stats.Manager, p.ID())
	s.edges = s.edges[:0]
	g.latches.Release(p, stats.Manager, p.ID())
}

// readEdges appends a snapshot of worker w's live edges to into and returns
// it with w's sequence.
func (g *Graph) readEdges(p rt.Proc, w int, into []Edge) ([]Edge, uint64) {
	s := &g.slots[w]
	g.latches.Acquire(p, stats.Manager, w)
	into = append(into, s.edges...)
	seq := s.seq
	g.latches.Release(p, stats.Manager, w)
	return into, seq
}

// FindCycle searches for a waits-for cycle through worker self's
// transaction (sequence selfSeq) and returns the cycle's member worker
// ids (including self), or nil. It performs a depth-first search over the
// partial graph formed by reading related workers' queues without global
// locking — the paper's lock-free-style detection pass. Detection work is
// billed to MANAGER.
//
// Returning the membership lets every transaction that observes the same
// cycle compute the same victim (DL_DETECT aborts the member with the
// largest worker id), so a deadlock costs one abort, not several.
func (g *Graph) FindCycle(p rt.Proc, self int, selfSeq uint64) []int {
	id := p.ID()
	g.stamp[id]++
	stamp := g.stamp[id]
	visited := g.visited[id]
	var path []int
	if g.dfs(p, id, stamp, visited, self, selfSeq, self, selfSeq, &path) {
		return path
	}
	return nil
}

// dfs explores (worker, seq); returns true when a path back to
// (self, selfSeq) is found, accumulating the cycle members into path.
func (g *Graph) dfs(p rt.Proc, id int, stamp uint64, visited []uint64,
	worker int, seq uint64, self int, selfSeq uint64, path *[]int) bool {
	if visited[worker] == stamp {
		return false
	}
	visited[worker] = stamp
	// The searcher's buffer is a stack: this frame's snapshot sits above
	// its callers' and is popped on return. Deeper frames only append, so
	// edges stays intact even if they make the buffer grow and move.
	base := len(g.buf[id])
	all, liveSeq := g.readEdges(p, worker, g.buf[id])
	edges := all[base:]
	g.buf[id] = all
	found := false
	if liveSeq == seq { // otherwise that txn has finished; its edges are stale
		p.Tick(stats.Manager, uint64(len(edges))*costs.DeadlockSearchPerEdge)
		for _, e := range edges {
			if (e.Worker == self && e.Seq == selfSeq) ||
				g.dfs(p, id, stamp, visited, e.Worker, e.Seq, self, selfSeq, path) {
				*path = append(*path, worker)
				found = true
				break
			}
		}
	}
	g.buf[id] = g.buf[id][:base]
	return found
}

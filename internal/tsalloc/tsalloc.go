// Package tsalloc implements the timestamp allocation methods evaluated in
// §4.3 of the paper. Every T/O-based scheme (and WAIT_DIE) draws per-
// transaction timestamps from one of these allocators; Fig. 6 is their
// micro-benchmark and Fig. 7 measures their effect inside the DBMS.
//
// Methods:
//
//	mutex      — a critical section around a shared counter (the naïve
//	             baseline; worst scalability).
//	atomic     — a single atomic fetch-add; the cache line ping-pongs
//	             across the chip, capping throughput near 10M ts/s at
//	             1024 cores (the coherence round trip is ~100 cycles).
//	batch8/16  — Silo-style batched atomic addition: one fetch-add
//	             returns a batch; restarts reuse timestamps from the
//	             stale batch, reproducing Fig. 7b's pathology.
//	clock      — each core reads its local synchronized clock and
//	             concatenates its thread id; fully decentralized, linear
//	             scaling (requires hardware support the paper notes only
//	             Intel shipped).
//	hardware   — the paper's proposed center-of-chip fetch-add unit:
//	             one-cycle service, ~1B ts/s.
package tsalloc

import (
	"fmt"

	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// Method selects a timestamp allocation strategy.
type Method int

const (
	// Mutex is the naïve critical-section allocator.
	Mutex Method = iota
	// Atomic is non-batched atomic addition — the paper's default for
	// all DBMS experiments ("the DBMS uses atomic addition without
	// batching" since the others need unavailable hardware).
	Atomic
	// Batch8 is atomic addition returning batches of 8.
	Batch8
	// Batch16 is atomic addition returning batches of 16.
	Batch16
	// Clock is synchronized per-core clock concatenated with thread id.
	Clock
	// Hardware is the center-of-chip hardware counter.
	Hardware
)

// Methods lists all methods in Fig. 6's order.
var Methods = []Method{Clock, Hardware, Batch16, Batch8, Atomic, Mutex}

// String returns the paper's label for the method.
func (m Method) String() string {
	switch m {
	case Mutex:
		return "Mutex"
	case Atomic:
		return "Atomic"
	case Batch8:
		return "Atomic batch=8"
	case Batch16:
		return "Atomic batch=16"
	case Clock:
		return "Clock"
	case Hardware:
		return "HW Counter"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a CLI name to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "mutex":
		return Mutex, nil
	case "atomic":
		return Atomic, nil
	case "batch8":
		return Batch8, nil
	case "batch16":
		return Batch16, nil
	case "clock":
		return Clock, nil
	case "hw", "hardware":
		return Hardware, nil
	default:
		return 0, fmt.Errorf("tsalloc: unknown method %q", s)
	}
}

// Allocator hands out unique, monotonically increasing (per source)
// transaction timestamps. Implementations are safe for use from any Proc.
type Allocator interface {
	// Next returns a fresh timestamp for p, billing stats.TsAlloc.
	Next(p rt.Proc) uint64
	// Method reports the allocation strategy.
	Method() Method
}

// tsBits is the number of low bits reserved for the worker id in
// clock-based timestamps, bounding the runtime to 1024 workers — exactly
// the paper's maximum core count.
const tsBits = 10

// New builds an allocator of the given method on runtime r.
func New(m Method, r rt.Runtime) Allocator {
	switch m {
	case Mutex:
		return &mutexAlloc{latch: r.NewLatches(0x75A110C, slot.Fixed(1))}
	case Atomic:
		return &counterAlloc{ctr: r.NewCounters(0x75A110C, slot.Fixed(1)), method: Atomic}
	case Batch8:
		return newBatchAlloc(r, 8)
	case Batch16:
		return newBatchAlloc(r, 16)
	case Clock:
		return &clockAlloc{last: make([]uint64, r.NumProcs())}
	case Hardware:
		return &counterAlloc{ctr: r.NewHardwareCounter(0x75A110C), method: Hardware}
	default:
		panic(fmt.Sprintf("tsalloc: unknown method %d", int(m)))
	}
}

// mutexAlloc serializes every allocation through one latch.
type mutexAlloc struct {
	latch rt.Latches // a slab of one
	next  uint64
}

func (a *mutexAlloc) Method() Method { return Mutex }

func (a *mutexAlloc) Next(p rt.Proc) uint64 {
	a.latch.Acquire(p, stats.TsAlloc, 0)
	p.Sync(stats.TsAlloc, costs.TsMutexHold)
	a.next++
	ts := a.next
	a.latch.Release(p, stats.TsAlloc, 0)
	return ts
}

// counterAlloc is one fetch-add per timestamp: on a shared line (atomic)
// or at the center-of-chip hardware unit (hardware).
type counterAlloc struct {
	ctr    rt.Counters // a slab of one
	method Method
}

func (a *counterAlloc) Method() Method { return a.method }

func (a *counterAlloc) Next(p rt.Proc) uint64 {
	return a.ctr.Add(p, stats.TsAlloc, 0, 1)
}

// batchAlloc performs one fetch-add per `size` timestamps. Per-worker
// batches mean a restarted transaction gets the *next timestamp in the
// stale batch*, which stays smaller than the conflicting transaction's
// timestamp — the starvation loop of Fig. 7b.
type batchAlloc struct {
	ctr  rt.Counters // a slab of one
	size uint64
	cur  []batchState
}

type batchState struct {
	next, end uint64
	_pad      [6]uint64 // avoid false sharing between workers (native runtime)
}

func newBatchAlloc(r rt.Runtime, size uint64) *batchAlloc {
	return &batchAlloc{
		ctr:  r.NewCounters(0x75A110C, slot.Fixed(1)),
		size: size,
		cur:  make([]batchState, r.NumProcs()),
	}
}

func (a *batchAlloc) Method() Method {
	if a.size == 8 {
		return Batch8
	}
	return Batch16
}

func (a *batchAlloc) Next(p rt.Proc) uint64 {
	st := &a.cur[p.ID()]
	p.Tick(stats.TsAlloc, 2) // local batch bookkeeping
	if st.next >= st.end {
		end := a.ctr.Add(p, stats.TsAlloc, 0, a.size)
		st.end = end
		st.next = end - a.size
	}
	st.next++
	return st.next
}

// clockAlloc reads the core-local synchronized clock and concatenates the
// worker id. Fully decentralized: no shared state at all.
type clockAlloc struct {
	last []uint64 // per-worker last issued (coarse tick disambiguation)
}

func (a *clockAlloc) Method() Method { return Clock }

func (a *clockAlloc) Next(p rt.Proc) uint64 {
	p.Tick(stats.TsAlloc, costs.TsClockRead)
	t := p.Now()
	// Guarantee strict local monotonicity even if the clock read
	// granularity repeats (native runtime).
	if t <= a.last[p.ID()] {
		t = a.last[p.ID()] + 1
	}
	a.last[p.ID()] = t
	return t<<tsBits | uint64(p.ID())
}

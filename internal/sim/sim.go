// Package sim implements the many-core machine simulator that substitutes
// for Graphite (§3.1 of the paper). It executes up to 1024 logical cores as
// coroutines (iter.Pull) of Run's caller over a deterministic discrete-event
// engine: one loop in Run resumes the runnable core with the smallest
// (cycle, id) pair and gets control back when that core yields, so exactly
// one core runs at any moment by construction and every access to shared
// DBMS state happens in simulated-time order. The whole simulation is one
// thread of control: this file has no goroutine, channel or lock.
//
// Consequences of this design:
//
//   - No Go-level data races: the DBMS's shared structures are mutated by
//     one core at a time, always between ordering points.
//   - Determinism: given a seed, a run produces bit-identical results —
//     Go's garbage collector and scheduler cannot perturb simulated time,
//     which is exactly the distortion the reproduction banding warned about.
//   - Faithful contention: latches and atomic counters serialize through
//     mesh.Line occupancy windows, reproducing the coherence bottlenecks
//     (timestamp allocation, mutex convoys, lock thrashing) that drive the
//     paper's results.
//
// The engine's hot path is allocation-free. Pending resumptions live in an
// intrusive indexed heap (eventQueue) whose minimum is always live, so an
// ordering point where the running core still owns the smallest (cycle, id)
// pair — the common case — costs one comparison against the queue head
// instead of a push + yield + resume round trip through Run's loop.
// Scheduling order is identical to the naive push-then-pop engine: the fast
// path fires exactly when popping would have returned the pushing core.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"

	"abyss1000/internal/mesh"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// wakeLatencyBase is the fixed cost, beyond mesh traversal, of delivering a
// wakeup (an inter-processor interrupt / monitor write on the target line).
const wakeLatencyBase = mesh.LineOpCycles

// Engine is the discrete-event scheduler for one simulated chip.
type Engine struct {
	chip  *mesh.Chip
	procs []*Proc
	queue eventQueue
	seed  int64

	doneCount int
	started   bool
}

// New creates an engine simulating n cores with the given RNG seed. A
// latch names procs, and a cache line tiles, in two bytes, so n is at most
// math.MaxInt16.
func New(n int, seed int64) *Engine {
	if n > math.MaxInt16 {
		panic(fmt.Sprintf("sim: %d cores: a latch and a cache line name at most math.MaxInt16 (%d) in two bytes", n, math.MaxInt16))
	}
	e := &Engine{
		chip: mesh.NewChip(n),
		seed: seed,
	}
	e.queue.h = make([]*Proc, 0, n)
	e.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		e.procs[i] = &Proc{
			id:      i,
			eng:     e,
			heapIdx: -1,
			rng:     rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9)),
		}
	}
	return e
}

// Chip exposes the simulated chip's topology (for allocators that need
// tile distances, e.g. clock-based timestamp allocation costs).
func (e *Engine) Chip() *mesh.Chip { return e.chip }

// NumProcs implements rt.Runtime.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Frequency implements rt.Runtime: the target runs at 1 GHz.
func (e *Engine) Frequency() float64 { return mesh.Frequency }

// Proc returns simulated core i (useful in tests).
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// handoff gives up the core until p's next event is the earliest one
// pending. p must have already scheduled that event if it expects to run
// again on its own. When p is still the queue's minimum nothing else may
// run first, so it pops itself and continues; otherwise it yields to Run's
// loop, which sets p.now before resuming it.
func (e *Engine) handoff(p *Proc) {
	if e.queue.len() > 0 && e.queue.min() == p {
		e.queue.popMin()
		p.now = p.eventAt
		return
	}
	p.yield(struct{}{})
}

// Run implements rt.Runtime: it executes body on every simulated core and
// returns when all cores have finished. Run may be called once per Engine.
// The cores are coroutines of the calling goroutine, so a panic in body
// unwinds into Run's caller. A global stall (live cores exist but none is
// scheduled — a protocol bug such as a lost wakeup or an undetected
// deadlock) panics here too; either way the unfinished cores stay suspended.
func (e *Engine) Run(body func(p rt.Proc)) {
	if e.started {
		panic("sim: Engine.Run called twice")
	}
	e.started = true
	for _, p := range e.procs {
		e.queue.schedule(p, p.now)
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			body(p)
			e.queue.remove(p) // drop any leftover deadline entry
			e.doneCount++
		})
	}
	for e.queue.len() > 0 {
		p := e.queue.popMin()
		p.now = p.eventAt
		p.next()
	}
	if e.doneCount != len(e.procs) {
		panic(fmt.Sprintf("sim: global stall: %d/%d procs finished, remainder parked forever (lost wakeup or undetected deadlock)", e.doneCount, len(e.procs)))
	}
}

// Proc is one simulated core. It implements rt.Proc.
type Proc struct {
	id  int
	eng *Engine
	now uint64
	rng *rand.Rand
	bd  stats.Breakdown

	// pend batches cycles billed by Tick/Sync/Park so the per-cycle path
	// touches one flat array instead of Breakdown's attempt bookkeeping.
	// It is flushed into bd by Stats(), which is how all attempt
	// transitions (Begin/Commit/AbortAttempt) and breakdown reads reach
	// the Breakdown — so every flushed cycle lands under the same
	// in-attempt state it was billed under, and totals are bit-identical
	// to unbatched accounting.
	pend [stats.NumComponents]uint64

	// next resumes the core's coroutine from Run's loop; yield suspends it
	// from inside the body.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// eventAt/heapIdx are the proc's intrusive slot in the engine's
	// eventQueue; heapIdx is -1 while the proc has no pending event.
	eventAt uint64
	heapIdx int32

	// waitNext links the proc into the circular FIFO of the one latch it
	// waits on (see latch), as the next waiter's ref; it is meaningful
	// only while the proc waits.
	waitNext uint16

	// reading counts the read sections the core is inside (rt.Latches):
	// while it is non-zero the core may reach no ordering point.
	reading int

	// Parking state (permit semantics, see rt.Proc).
	parked      bool
	parkedAt    uint64
	permit      bool
	wakePending bool
}

var _ rt.Proc = (*Proc)(nil)

// ID implements rt.Proc.
func (p *Proc) ID() int { return p.id }

// ref names p in two bytes: its id plus one, so that 0 names no proc.
func (p *Proc) ref() uint16 { return uint16(p.id + 1) }

// Now implements rt.Proc.
func (p *Proc) Now() uint64 { return p.now }

// Rand implements rt.Proc.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Stats implements rt.Proc. It flushes the batched cycle accounting first,
// so callers always observe (and mutate attempt state against) an
// up-to-date Breakdown.
func (p *Proc) Stats() *stats.Breakdown {
	p.bd.AddPending(&p.pend)
	return &p.bd
}

// Tick implements rt.Proc: advance the local clock without yielding. Use
// for core-local work (application logic, private-buffer copies).
func (p *Proc) Tick(c stats.Component, cycles uint64) {
	p.now += cycles
	p.pend[c] += cycles
}

// Backoff implements rt.Proc: simulated time passing is the whole penalty.
func (p *Proc) Backoff(c stats.Component, cycles uint64) { p.Tick(c, cycles) }

// Sync implements rt.Proc: advance the clock and yield so that the engine
// can run any core whose clock is behind ours. Code performing an access to
// shared simulation state calls Sync first; the access then occurs in
// global simulated-time order.
//
// Fast path: if the queue's live minimum is after (p.now, p.id), no other
// core could legally run before p, so pushing p and immediately popping it
// back would be a no-op — Sync returns without touching the queue. This is
// exact, not heuristic: the eventQueue holds no stale entries, so the
// comparison against its head decides precisely what the push-then-pop
// engine would have decided.
func (p *Proc) Sync(c stats.Component, cycles uint64) {
	if p.reading != 0 {
		panic("sim: ordering point inside a read section")
	}
	p.now += cycles
	p.pend[c] += cycles
	e := p.eng
	if e.queue.len() == 0 {
		return
	}
	if m := e.queue.min(); m.eventAt > p.now || (m.eventAt == p.now && m.id > p.id) {
		return
	}
	e.queue.schedule(p, p.now)
	e.handoff(p)
}

// MemRead implements rt.Proc: a NUCA L2 access to the slice homing key,
// plus pipeline cycles proportional to the bytes moved.
func (p *Proc) MemRead(c stats.Component, key uint64, bytes uint64) {
	home := p.eng.chip.HomeTile(key)
	p.Tick(c, p.eng.chip.L2Access(p.id, home)+bytes/16)
}

// MemWrite implements rt.Proc. Writes pay the same NUCA traversal (the line
// must be fetched for ownership) plus the store bandwidth.
func (p *Proc) MemWrite(c stats.Component, key uint64, bytes uint64) {
	home := p.eng.chip.HomeTile(key)
	p.Tick(c, p.eng.chip.L2Access(p.id, home)+bytes/8)
}

// Park implements rt.Proc.
func (p *Proc) Park(c stats.Component) {
	if p.reading != 0 {
		panic("sim: Park inside a read section")
	}
	if p.permit {
		p.permit = false
		p.Tick(c, mesh.L1Cycles)
		return
	}
	p.parked = true
	p.parkedAt = p.now
	p.wakePending = false
	p.eng.queue.remove(p) // no deadline: only an Unpark may reschedule us
	p.eng.handoff(p)
	// Resumed by an Unpark, at the time it scheduled.
	p.parked = false
	p.wakePending = false
	p.pend[c] += p.now - p.parkedAt
}

// ParkTimeout implements rt.Proc.
func (p *Proc) ParkTimeout(c stats.Component, cycles uint64) bool {
	if p.reading != 0 {
		panic("sim: ParkTimeout inside a read section")
	}
	if p.permit {
		p.permit = false
		p.Tick(c, mesh.L1Cycles)
		return true
	}
	p.parked = true
	p.parkedAt = p.now
	p.wakePending = false
	p.eng.queue.schedule(p, p.now+cycles) // deadline entry
	p.eng.handoff(p)
	woken := p.wakePending
	p.parked = false
	p.wakePending = false
	p.pend[c] += p.now - p.parkedAt
	return woken
}

// Unpark implements rt.Runtime's wakeup on behalf of waker. If target is
// parked it is scheduled at max(parkedAt, waker.Now()+delivery); otherwise a
// permit is left for target's next Park. A pending ParkTimeout deadline is
// superseded in place (decrease- or increase-key) rather than shadowed by a
// second entry.
func (e *Engine) Unpark(waker rt.Proc, target rt.Proc) {
	t := target.(*Proc)
	if !t.parked {
		t.permit = true
		return
	}
	if t.wakePending {
		return // a wake is already in flight; permits are binary
	}
	var wakeAt uint64
	if waker != nil {
		w := waker.(*Proc)
		lat := uint64(wakeLatencyBase + mesh.HopCycles*e.chip.Hops(w.id, t.id))
		wakeAt = w.now + lat
	}
	if wakeAt < t.parkedAt {
		wakeAt = t.parkedAt
	}
	t.wakePending = true
	e.queue.schedule(t, wakeAt)
}

// latch is one element of the simulated rt.Latches: a test-and-set word on
// a shared cache line with a FIFO waiter queue. Contended acquisition parks
// the caller; release hands the latch directly to the head waiter (no
// thundering herd). It is its line and nothing else, 16 bytes, and names no
// engine — the calling Proc knows its own — so a table's worth is one slab.
// The latch's state lives in the line's Spare words, each a Proc ref (0 =
// none): the holder, and the tail of a circular singly linked FIFO of
// waiters threaded through Proc.waitNext. A waiter is parked inside Acquire
// until the releaser makes it the holder, so a proc waits on at most one
// latch, its one link suffices, and contention allocates nothing.
type latch struct{ line mesh.Line }

// The latch's Spare words.
const (
	holder = iota
	tail
)

// enqueue appends p to the FIFO whose tail is *t.
func (e *Engine) enqueue(t *uint16, p *Proc) {
	if *t == 0 {
		p.waitNext = p.ref() // alone: its own successor
	} else {
		last := e.procs[*t-1]
		p.waitNext, last.waitNext = last.waitNext, p.ref()
	}
	*t = p.ref()
}

// dequeue removes and returns the head of the non-empty FIFO whose tail is
// *t: the tail's successor.
func (e *Engine) dequeue(t *uint16) *Proc {
	last := e.procs[*t-1]
	head := e.procs[last.waitNext-1]
	if head == last {
		*t = 0
	} else {
		last.waitNext = head.waitNext
	}
	return head
}

// counter is one element of the simulated rt.Counters: an atomic fetch-add
// word on a shared cache line. Every Add pays the coherence transfer from
// the previous owner tile and serializes through the line's occupancy
// window — with 1024 cores the cross-chip round trip caps throughput near
// 10M ops/s at 1 GHz, reproducing the paper's Fig. 6 arithmetic.
type counter struct {
	line  mesh.Line
	value uint64
}

// latches and counters are the slabs: element i sits on the line key base|i
// places. Placement is a pure function of the key, so an element paged in
// mid-run is the element an up-front slab would have held, and element 0 of
// a slab of one made at base|i is element i of a slab made at base.
type (
	latches  struct{ slot.Array[latch] }
	counters struct{ slot.Array[counter] }
)

// NewLatches implements rt.Runtime.
func (e *Engine) NewLatches(base uint64, l slot.Layout) rt.Latches {
	return &latches{slot.MakeWith(l, 1, func(s []latch, first int) {
		for j := range s {
			s[j].line = mesh.NewLine(e.chip, base|uint64(first+j))
		}
	})}
}

// NewCounters implements rt.Runtime.
func (e *Engine) NewCounters(base uint64, l slot.Layout) rt.Counters {
	return &counters{slot.MakeWith(l, 1, func(s []counter, first int) {
		for j := range s {
			s[j].line = mesh.NewLine(e.chip, base|uint64(first+j))
		}
	})}
}

// Acquire implements rt.Latches.
func (s *latches) Acquire(p rt.Proc, c stats.Component, i int) {
	l, sp := s.At(i), p.(*Proc)
	sp.Sync(c, 0) // ordering point: run any core whose clock is behind
	done := l.line.Exclusive(sp.eng.chip, sp.id, sp.now)
	sp.Tick(c, done-sp.now)
	w := &l.line.Spare
	if w[holder] == 0 {
		w[holder] = sp.ref()
		return
	}
	if w[holder] == sp.ref() {
		panic("sim: latch is not reentrant")
	}
	sp.eng.enqueue(&w[tail], sp)
	sp.Park(c)
	// The releaser made us the holder before unparking us.
}

// Release implements rt.Latches.
func (s *latches) Release(p rt.Proc, c stats.Component, i int) {
	l, sp := s.At(i), p.(*Proc)
	w := &l.line.Spare
	if w[holder] != sp.ref() {
		panic("sim: latch released by non-holder")
	}
	done := l.line.Exclusive(sp.eng.chip, sp.id, sp.now)
	sp.Tick(c, done-sp.now)
	if w[tail] == 0 {
		w[holder] = 0
		return
	}
	next := sp.eng.dequeue(&w[tail])
	w[holder] = next.ref()
	sp.eng.Unpark(sp, next)
}

// AcquireRead implements rt.Latches: an ordering point and nothing else.
// The latch's line keeps its owner and occupancy window; the section's own
// MemReads bill what it reads.
func (s *latches) AcquireRead(p rt.Proc, c stats.Component, i int) {
	sp := p.(*Proc)
	sp.Sync(c, 0)
	if s.At(i).line.Spare[holder] != 0 {
		panic("sim: read section on a held latch (an exclusive section of it reached an ordering point)")
	}
	sp.reading++
}

// ReleaseRead implements rt.Latches.
func (s *latches) ReleaseRead(p rt.Proc, c stats.Component, i int) { p.(*Proc).reading-- }

// TryAcquireQuiet implements rt.Latches: a latch is free exactly when it has
// no holder, and taking it touches neither its line nor the caller's clock.
func (s *latches) TryAcquireQuiet(p rt.Proc, i int) bool {
	w := &s.At(i).line.Spare
	if w[holder] != 0 {
		return false
	}
	w[holder] = p.(*Proc).ref()
	return true
}

// ReleaseQuiet implements rt.Latches. The holder has not yielded since it
// took the latch, so nobody can be queued behind it.
func (s *latches) ReleaseQuiet(p rt.Proc, i int) { s.At(i).line.Spare[holder] = 0 }

// Add implements rt.Counters.
func (s *counters) Add(p rt.Proc, comp stats.Component, i int, delta uint64) uint64 {
	c, sp := s.At(i), p.(*Proc)
	sp.Sync(comp, 0)
	done := c.line.Exclusive(sp.eng.chip, sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	c.value += delta
	return c.value
}

// Load implements rt.Counters.
func (s *counters) Load(p rt.Proc, comp stats.Component, i int) uint64 {
	c, sp := s.At(i), p.(*Proc)
	sp.Sync(comp, 0)
	done := c.line.Read(sp.eng.chip, sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	return c.value
}

// Store implements rt.Counters.
func (s *counters) Store(p rt.Proc, comp stats.Component, i int, v uint64) {
	c, sp := s.At(i), p.(*Proc)
	sp.Sync(comp, 0)
	done := c.line.Exclusive(sp.eng.chip, sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	c.value = v
}

// hwCounter is the paper's proposed hardware fetch-add unit at the chip
// center (§4.3): requests travel the mesh, are serviced in one cycle, and
// return. No cache line ping-pongs, so throughput reaches ~1 ts/cycle. It
// is a slab of one counter: index 0 is its only valid element.
type hwCounter struct {
	svc   *mesh.CenterService
	value [1]uint64
}

// NewHardwareCounter implements rt.Runtime.
func (e *Engine) NewHardwareCounter(key uint64) rt.Counters {
	return &hwCounter{svc: mesh.NewCenterService(e.chip)}
}

// request bills one round trip to the center unit.
func (c *hwCounter) request(p rt.Proc, comp stats.Component) {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.svc.Request(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
}

// Add implements rt.Counters.
func (c *hwCounter) Add(p rt.Proc, comp stats.Component, i int, delta uint64) uint64 {
	c.request(p, comp)
	c.value[i] += delta
	return c.value[i]
}

// Load implements rt.Counters.
func (c *hwCounter) Load(p rt.Proc, comp stats.Component, i int) uint64 {
	c.request(p, comp)
	return c.value[i]
}

// Store implements rt.Counters.
func (c *hwCounter) Store(p rt.Proc, comp stats.Component, i int, v uint64) {
	c.request(p, comp)
	c.value[i] = v
}

var _ rt.Runtime = (*Engine)(nil)

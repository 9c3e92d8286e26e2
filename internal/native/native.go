// Package native implements rt.Runtime on real goroutines with real
// synchronization primitives. It exists for the paper's Fig. 3 experiment,
// which validates that the simulator and real hardware exhibit the same
// performance trends: the same DBMS and concurrency-control code runs
// unmodified on both substrates.
//
// Under the native runtime, Tick/Sync/MemRead/MemWrite only account modeled
// cycles into the stats breakdown (they do not delay execution; Backoff
// additionally yields the processor); Now() returns real elapsed
// nanoseconds, so with the nominal 1 GHz target clock one "cycle" is one
// nanosecond and throughput figures are real wall-clock transactions per
// second. Parking uses per-proc permit channels; a latch is a sync.Mutex and
// a counter an atomic word, eight bytes each, and table-sized sets of them
// are slot arrays of latch and counter values indexed in place.
package native

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// Runtime is the real-concurrency rt.Runtime.
type Runtime struct {
	n     int
	seed  int64
	start time.Time
	procs []*Proc
}

// New creates a native runtime with n worker goroutines. n should not
// exceed the host's core count for meaningful scaling measurements, but any
// positive value is accepted.
func New(n int, seed int64) *Runtime {
	r := &Runtime{n: n, seed: seed, start: time.Now()}
	r.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		r.procs[i] = &Proc{
			id:     i,
			rt:     r,
			rng:    rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9)),
			permit: make(chan struct{}, 1),
		}
	}
	return r
}

// NumProcs implements rt.Runtime.
func (r *Runtime) NumProcs() int { return r.n }

// Frequency implements rt.Runtime: 1 "cycle" = 1 ns of wall time.
func (r *Runtime) Frequency() float64 { return 1e9 }

// Proc returns worker i (useful in tests).
func (r *Runtime) Proc(i int) *Proc { return r.procs[i] }

// Run implements rt.Runtime.
func (r *Runtime) Run(body func(p rt.Proc)) {
	r.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(r.n)
	for _, p := range r.procs {
		p := p
		go func() {
			defer wg.Done()
			body(p)
		}()
	}
	wg.Wait()
}

// Unpark implements rt.Runtime with binary-permit semantics.
func (r *Runtime) Unpark(waker rt.Proc, target rt.Proc) {
	t := target.(*Proc)
	select {
	case t.permit <- struct{}{}:
	default: // permit already pending
	}
}

// NewLatches implements rt.Runtime.
func (r *Runtime) NewLatches(base uint64, l slot.Layout) rt.Latches {
	return &latches{slot.Make[latch](l)}
}

// NewCounters implements rt.Runtime.
func (r *Runtime) NewCounters(base uint64, l slot.Layout) rt.Counters {
	return &counters{slot.Make[counter](l)}
}

// NewHardwareCounter implements rt.Runtime. Real CPUs have no center-of-chip
// fetch-add unit (the paper's point); the closest native equivalent is the
// same atomic counter, in a slab of one.
func (r *Runtime) NewHardwareCounter(key uint64) rt.Counters {
	return r.NewCounters(key, slot.Fixed(1))
}

// Proc is one native worker. It implements rt.Proc.
type Proc struct {
	id     int
	rt     *Runtime
	rng    *rand.Rand
	bd     stats.Breakdown
	permit chan struct{}
	timer  *time.Timer // ParkTimeout's deadline, made on first use and reused

	// pend batches cycles billed by Tick/Sync/Mem*/Park, mirroring the
	// simulator's accounting fast path: the hot path increments one flat
	// array and Stats() flushes into the Breakdown (and its per-attempt
	// bookkeeping) on demand. Only the owning worker touches it.
	pend [stats.NumComponents]uint64
}

var _ rt.Proc = (*Proc)(nil)

// ID implements rt.Proc.
func (p *Proc) ID() int { return p.id }

// Now implements rt.Proc: elapsed wall-clock nanoseconds since Run started.
func (p *Proc) Now() uint64 { return uint64(time.Since(p.rt.start)) }

// Rand implements rt.Proc.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Stats implements rt.Proc. It flushes the batched cycle accounting first,
// so callers always observe (and mutate attempt state against) an
// up-to-date Breakdown.
func (p *Proc) Stats() *stats.Breakdown {
	p.bd.AddPending(&p.pend)
	return &p.bd
}

// Tick implements rt.Proc: account modeled cycles only.
func (p *Proc) Tick(c stats.Component, cycles uint64) { p.pend[c] += cycles }

// Backoff implements rt.Proc: bill the penalty and yield the OS thread.
func (p *Proc) Backoff(c stats.Component, cycles uint64) {
	p.pend[c] += cycles
	runtime.Gosched()
}

// Sync implements rt.Proc: on real hardware ordering comes from the real
// primitives, so Sync is just accounting.
func (p *Proc) Sync(c stats.Component, cycles uint64) { p.pend[c] += cycles }

// MemRead implements rt.Proc: a fixed access cost plus the bytes moved.
func (p *Proc) MemRead(c stats.Component, key uint64, bytes uint64) {
	p.pend[c] += 8 + bytes/16
}

// MemWrite implements rt.Proc.
func (p *Proc) MemWrite(c stats.Component, key uint64, bytes uint64) {
	p.pend[c] += 8 + bytes/8
}

// Park implements rt.Proc.
func (p *Proc) Park(c stats.Component) {
	t0 := time.Now()
	<-p.permit
	p.pend[c] += uint64(time.Since(t0))
}

// ParkTimeout implements rt.Proc.
func (p *Proc) ParkTimeout(c stats.Component, cycles uint64) bool {
	t0 := time.Now()
	d := time.Duration(cycles) * time.Nanosecond
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		// No drain: since go 1.23 a stopped or reset timer's channel
		// never delivers a stale tick.
		p.timer.Reset(d)
	}
	var woken bool
	select {
	case <-p.permit:
		p.timer.Stop()
		woken = true
	case <-p.timer.C:
	}
	p.pend[c] += uint64(time.Since(t0))
	return woken
}

// latches and counters are the slabs: a latch is a sync.Mutex and a counter
// an atomic word. Placement keys mean nothing on real hardware.
type (
	latches  struct{ slot.Array[latch] }
	counters struct{ slot.Array[counter] }
	latch    struct{ mu sync.Mutex }
	counter  struct{ v atomic.Uint64 }
)

// Acquire implements rt.Latches.
func (s *latches) Acquire(p rt.Proc, c stats.Component, i int) { s.At(i).mu.Lock() }

// Release implements rt.Latches.
func (s *latches) Release(p rt.Proc, c stats.Component, i int) { s.At(i).mu.Unlock() }

// AcquireRead implements rt.Latches: a read section holds the mutex, as
// Acquire does (a sync.RWMutex would triple every latch's eight bytes).
func (s *latches) AcquireRead(p rt.Proc, c stats.Component, i int) { s.At(i).mu.Lock() }

// ReleaseRead implements rt.Latches.
func (s *latches) ReleaseRead(p rt.Proc, c stats.Component, i int) { s.At(i).mu.Unlock() }

// TryAcquireQuiet implements rt.Latches.
func (s *latches) TryAcquireQuiet(p rt.Proc, i int) bool { return s.At(i).mu.TryLock() }

// ReleaseQuiet implements rt.Latches.
func (s *latches) ReleaseQuiet(p rt.Proc, i int) { s.At(i).mu.Unlock() }

// Add implements rt.Counters.
func (s *counters) Add(p rt.Proc, c stats.Component, i int, delta uint64) uint64 {
	return s.At(i).v.Add(delta)
}

// Load implements rt.Counters.
func (s *counters) Load(p rt.Proc, c stats.Component, i int) uint64 { return s.At(i).v.Load() }

// Store implements rt.Counters.
func (s *counters) Store(p rt.Proc, c stats.Component, i int, v uint64) { s.At(i).v.Store(v) }

var _ rt.Runtime = (*Runtime)(nil)

// Package rt defines the runtime abstraction that lets the same DBMS and
// concurrency-control code execute on two very different substrates:
//
//   - internal/sim: a deterministic discrete-event simulator of a tiled
//     many-core CPU (the stand-in for the Graphite simulator the paper used),
//     scaling to 1024 simulated cores on a laptop; and
//   - internal/native: real goroutines with real sync primitives, used for
//     the paper's Fig. 3 "simulator vs. real hardware" comparison.
//
// The contract: DBMS code never uses sync/atomic directly. All shared
// mutable state is accessed only while holding a latch of an rt.Latches
// slab, all shared monotonic counters are elements of an rt.Counters slab
// (a lone latch or counter is a slab of one), and blocking uses Park/Unpark
// with binary-permit semantics (an Unpark delivered before Park is not lost).
// Under the simulator these primitives advance a simulated cycle clock and
// enforce a global simulated-time order; under the native runtime they map
// to sync.Mutex, atomic.AddUint64 and channel-based parking.
package rt

import (
	"math/rand"

	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// Proc is a logical core / worker thread. Exactly one transaction executes
// on a Proc at a time (the paper's DBMS maps one worker thread per core).
//
// Tick and Sync both bill cycles to a stats component and advance the local
// clock. The difference matters only under simulation: Sync additionally
// establishes a global ordering point, guaranteeing that any shared-state
// access performed after Sync returns happens in simulated-time order with
// respect to all other cores' Sync'd accesses. Latch and counter operations
// Sync internally, so plain DBMS code only needs explicit Sync when it
// touches shared state outside a latch (which it should not).
type Proc interface {
	// ID returns the core/worker id in [0, Runtime.NumProcs()).
	ID() int

	// Now returns the local clock in cycles (simulated) or an
	// implementation-defined monotonic value (native).
	Now() uint64

	// Tick advances the local clock by cycles, billing them to c.
	Tick(c stats.Component, cycles uint64)

	// Backoff is Tick for the restart penalty after a CC abort, which must
	// be served, not merely billed, so that the conflicting transaction
	// runs meanwhile. Advancing the simulated clock does that; the native
	// Tick is accounting only, so there the Proc also yields its OS thread
	// — or a transaction dying against an older lock holder restarts in a
	// loop that never blocks and, on a busy host, starves that holder.
	Backoff(c stats.Component, cycles uint64)

	// Sync is Tick plus a global ordering point (see type comment).
	//
	// Implementations may elide the yield when no other Proc could
	// legally run before the caller (under simulation: when the live
	// event-queue minimum is after the caller's (cycle, id) pair). The
	// elision is unobservable — the schedule, and therefore every
	// simulated result, is identical to always yielding — so callers
	// must not rely on Sync giving other Procs a turn unless one is
	// actually due.
	Sync(c stats.Component, cycles uint64)

	// Park blocks until another Proc calls Runtime.Unpark on this Proc.
	// If a permit is already pending, Park consumes it and returns
	// immediately. Blocked time is billed to c.
	Park(c stats.Component)

	// ParkTimeout is Park with a deadline, and reports whether the Proc
	// was unparked (true) or timed out (false). A pending permit after a
	// timeout is left in place for the next Park to consume (callers that
	// re-check state under a latch are immune to the race either way).
	ParkTimeout(c stats.Component, cycles uint64) bool

	// Rand returns this Proc's private deterministic RNG.
	Rand() *rand.Rand

	// Stats returns this Proc's time breakdown. Implementations batch
	// the cycles billed by Tick/Sync/Park between Stats calls and flush
	// them here, so all reads of the breakdown — and all attempt
	// transitions (BeginAttempt/CommitAttempt/AbortAttempt) — must go
	// through Stats rather than a cached *stats.Breakdown.
	Stats() *stats.Breakdown

	// MemRead models reading bytes of shared data homed at key (a NUCA
	// L2 access whose latency grows with mesh distance under simulation,
	// plus a bandwidth term in bytes; a fixed-formula bill under the
	// native runtime). bytes is what the access moves, not the size of
	// the object at key: a read of one column of a row names that
	// column's width. It never blocks: correctness of the data read is the
	// concurrency-control scheme's business.
	MemRead(c stats.Component, key uint64, bytes uint64)

	// MemWrite models writing bytes of shared data homed at key; as for
	// MemRead, bytes is what the store moves.
	MemWrite(c stats.Component, key uint64, bytes uint64)
}

// Latches is a slab of short-duration mutual-exclusion locks made by one
// Runtime.NewLatches call and addressed by index. A latch protects shared
// state (per-tuple CC metadata, index buckets, partition queues, a central
// validation section); latches are not reentrant, and a holder must not
// Park. A table-sized structure holds one slab rather than one object per
// element, so that its resident cost is a few bytes per element and one
// allocation per table (plus one per insert page reached); a lone latch is
// a slab of one, used at index 0.
//
// Acquire blocks until latch i is held, billing acquisition cost and any
// contention stall to c. Release gives it back; its billed cost is
// implementation defined (typically a store + line transfer on the
// simulator).
//
// AcquireRead and ReleaseRead bracket a read section on latch i: a body
// that only reads the state the latch guards, and that reaches no ordering
// point — no Sync, Park or ParkTimeout, and so no latch Acquire and no
// counter operation — before ReleaseRead. A read section excludes exclusive
// holders of the latch. Under simulation it is an ordering point at entry
// and nothing else: it moves no line ownership and bills no transfer, so
// the section pays only for the lines its own MemReads name (DBx1000 and
// Silo probe their indexes without taking the bucket latch's line). That
// is exact only if no exclusive section of the latch reaches an ordering
// point either, so that a reader can never find the latch held: the
// simulator panics if one does, and if a read section's body reaches an
// ordering point. Natively a read section is Acquire and Release of the
// same mutex, which bill nothing either way.
//
// TryAcquireQuiet and ReleaseQuiet are the unmodelled pair, for housekeeping
// that is not part of the paper's cost model (MVCC's garbage collection):
// the first takes latch i only if it is free, never waits and reports
// whether it did; the second gives it back. Neither bills a component,
// advances a clock, moves a simulated cache line or is an ordering point,
// so a simulated schedule cannot tell that they ran. In exchange the holder
// may call no Proc method — and so no other latch, counter or Unpark
// operation either — before ReleaseQuiet: under simulation that is what
// keeps every other core from ever seeing the latch held.
type Latches interface {
	Acquire(p Proc, c stats.Component, i int)
	Release(p Proc, c stats.Component, i int)
	AcquireRead(p Proc, c stats.Component, i int)
	ReleaseRead(p Proc, c stats.Component, i int)
	TryAcquireQuiet(p Proc, i int) bool
	ReleaseQuiet(p Proc, i int)
}

// Counters is a slab of shared words supporting atomic fetch-add, the
// primitive behind the "atomic addition" timestamp allocator and the
// paper's Fig. 6 micro-benchmark, addressed by index like Latches. A
// counter also supports plain stores (used for per-worker published values
// such as MVCC's active-transaction timestamps).
//
// Add atomically adds delta to counter i and returns the new value,
// billing the operation (including coherence stalls under simulation) to
// c. Load returns its current value; under simulation that is a read of a
// (possibly remote) cache line. Store overwrites it.
type Counters interface {
	Add(p Proc, c stats.Component, i int, delta uint64) uint64
	Load(p Proc, c stats.Component, i int) uint64
	Store(p Proc, c stats.Component, i int, v uint64)
}

// Runtime creates Procs and shared primitives and executes worker bodies.
type Runtime interface {
	// NumProcs returns the number of logical cores.
	NumProcs() int

	// NewLatches and NewCounters make l.Cap latches or counters laid out
	// as a slot.Array: the first l.Dense as one slab, the rest a page at a
	// time on first use. Element i is placed by key base|i (base must
	// leave the bits of i clear), whenever it is allocated: the key
	// identifies the protected object, and the simulator uses it to place
	// the element's cache line on a home tile deterministically.
	NewLatches(base uint64, l slot.Layout) Latches
	NewCounters(base uint64, l slot.Layout) Counters

	// NewHardwareCounter allocates the paper's proposed center-of-chip
	// hardware counter: a fetch-add that serializes for a single cycle at
	// a central location (§4.3). It is a slab of one, used at index 0.
	// Under the native runtime this is an ordinary atomic counter.
	NewHardwareCounter(key uint64) Counters

	// Unpark delivers a wakeup permit to target. waker is the Proc on
	// whose behalf the wake occurs (it pays the signalling cost); it may
	// be nil for external wakes.
	Unpark(waker Proc, target Proc)

	// Run executes body on every Proc concurrently (in simulated or real
	// time) and returns when all bodies have returned.
	Run(body func(p Proc))

	// Frequency returns simulated core frequency in Hz (cycles per
	// second) used to convert cycle counts into txn/s figures.
	Frequency() float64
}

// Overload tier: open-loop arrival processes, bounded admission queues,
// load shedding, deadlines and retry budgets.
//
// The paper's harness is closed-loop — each worker finishes one
// transaction before drawing the next, so offered load can never exceed
// service capacity and the system cannot be driven past its knee. The
// serving mode here models "heavy traffic from millions of users"
// instead: arrivals are generated by a seed-deterministic stochastic
// process (Poisson, or a two-state Markov-modulated Poisson process for
// bursts), queued per worker in a bounded admission queue, and shed when
// the queue is full. A transaction that cannot commit before its deadline
// (or within its retry budget) is abandoned with ErrDeadline instead of
// retrying forever.
//
// The open loop is one of the three sources that feed the one worker
// loop (worker.go), so its transactions meet the same deadline rule,
// retry budget and backoff as closed-loop and served ones. With
// Config.Arrivals closed (the zero value) the open-loop source is never
// built and the closed-loop schedule is unchanged — the golden signature
// pins that.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"abyss1000/internal/costs"
	"abyss1000/internal/stats"
)

// ErrDeadline classifies a transaction abandoned by overload control: its
// deadline passed (possibly while still queued) or its retry budget ran
// out before it could commit. The engine rolls the last attempt back and
// does not restart it; such transactions count in Result.Deadlined,
// separately from concurrency-control aborts.
var ErrDeadline = errors.New("core: transaction abandoned past its deadline")

// ArrivalProcess selects how offered load is generated.
type ArrivalProcess int

const (
	// ArrivalClosed is the paper's closed loop: one outstanding
	// transaction per worker, the next drawn as soon as the previous
	// finishes. The zero value, so existing configurations are unchanged.
	ArrivalClosed ArrivalProcess = iota

	// ArrivalPoisson offers load as a Poisson process at RateTPS
	// transactions per second, split evenly across workers.
	ArrivalPoisson

	// ArrivalMMPP offers load as a two-state Markov-modulated Poisson
	// process: a calm state at RateTPS and a burst state at BurstRateTPS,
	// with exponentially distributed dwell times (means CalmCycles and
	// BurstCycles). Models bursty production traffic.
	ArrivalMMPP
)

// String names the process for CLI output and error messages.
func (p ArrivalProcess) String() string {
	switch p {
	case ArrivalClosed:
		return "closed"
	case ArrivalPoisson:
		return "poisson"
	case ArrivalMMPP:
		return "mmpp"
	default:
		return fmt.Sprintf("ArrivalProcess(%d)", int(p))
	}
}

// Arrivals configures the open-loop arrival process. The zero value keeps
// the closed loop. All fields are plain values so Config (and bench.Job)
// stays comparable.
type Arrivals struct {
	// Process selects the generator; ArrivalClosed disables open loop.
	Process ArrivalProcess

	// RateTPS is the aggregate offered load in transactions per second
	// (the calm-state rate for MMPP), split evenly across workers.
	RateTPS float64

	// BurstRateTPS is the MMPP burst-state aggregate rate.
	BurstRateTPS float64

	// BurstCycles and CalmCycles are the MMPP mean dwell times, in
	// cycles, of the burst and calm states.
	BurstCycles uint64
	CalmCycles  uint64

	// Seed makes the arrival streams deterministic: worker i draws from
	// an RNG seeded by Seed and i only, independent of scheduling. Two
	// runs with the same Seed offer the identical arrival sequence.
	Seed int64
}

// Open reports whether an open-loop process is configured.
func (a Arrivals) Open() bool { return a.Process != ArrivalClosed }

// Validate rejects generator parameters that cannot produce arrivals.
// The zero value (closed loop) is valid; callers that need offered load
// check Open as well.
func (a Arrivals) Validate() error {
	switch a.Process {
	case ArrivalClosed:
		if a.RateTPS != 0 || a.BurstRateTPS != 0 {
			return errors.New("Arrivals.RateTPS is set but Process is the closed loop; set Arrivals.Process to ArrivalPoisson or ArrivalMMPP")
		}
	case ArrivalPoisson:
		if !finiteRate(a.RateTPS) {
			return fmt.Errorf("ArrivalPoisson needs a finite Arrivals.RateTPS > 0 (offered load in txn/s), got %g", a.RateTPS)
		}
	case ArrivalMMPP:
		if !finiteRate(a.RateTPS) || !finiteRate(a.BurstRateTPS) {
			return fmt.Errorf("ArrivalMMPP needs finite Arrivals.RateTPS and BurstRateTPS > 0 (calm and burst offered load in txn/s), got %g and %g", a.RateTPS, a.BurstRateTPS)
		}
		if a.CalmCycles == 0 || a.BurstCycles == 0 {
			return errors.New("ArrivalMMPP needs nonzero Arrivals.CalmCycles and BurstCycles (mean dwell times)")
		}
	default:
		return fmt.Errorf("unknown Arrivals.Process %d", int(a.Process))
	}
	return nil
}

// finiteRate reports whether x is a usable offered load: positive, and
// neither NaN nor +Inf (an infinite rate has a zero mean gap, so the
// ingest loop would never advance the clock).
func finiteRate(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// FaultInjector injects failures at transaction boundaries. Before
// drawing work, each worker asks the injector for an extra stall; nonzero
// delays are billed to the Idle component and the worker re-checks the
// clock afterwards, so injected faults compose with deadlines and
// shedding exactly like genuine slowness. Implementations must be pure
// functions of (worker, now) — they are called from every worker
// goroutine and must not retain state per call. internal/faultinject has
// stock injectors (stalled worker, slow partition, latency spikes).
type FaultInjector interface {
	// Delay returns the stall, in cycles, to inject for worker at time
	// now; zero means no fault is active.
	Delay(worker int, now uint64) uint64
}

// A restart loop with no configured backoff (base 0) restarts at once
// until a transaction has aborted livelockAborts times in a row; from
// then on it backs off from costs.BackoffBase, doubling per failure up to
// livelockCap. Nothing else perturbs a simulated schedule, so two NO_WAIT
// transactions that lock each other's rows in opposite orders and restart
// at once would collide the same way for ever; a randomized penalty that
// grows past the length of their conflict breaks the tie.
const (
	livelockAborts = 8
	livelockCap    = 64 * costs.BackoffBase
)

// backoffMean returns the mean randomized backoff after the attempt-th
// consecutive failure (attempt ≥ 1): base doubling per failure, capped at
// cap. A zero cap disables growth — the mean stays base forever, which
// reproduces the historical fixed-backoff restart loop draw-for-draw. A
// zero base means no backoff until the livelock guard above.
func backoffMean(base, cap uint64, attempt int) uint64 {
	if base == 0 {
		if attempt < livelockAborts {
			return 0
		}
		base, cap, attempt = costs.BackoffBase, livelockCap, attempt-livelockAborts+1
	}
	if cap == 0 {
		return base
	}
	if cap < base {
		return cap
	}
	m := base
	for i := 1; i < attempt; i++ {
		m <<= 1
		if m >= cap {
			return cap
		}
	}
	return m
}

// ArrivalStream produces one stream's share of an arrival process: the
// engine gives each worker one, the remote load generator each
// connection. A stream is seeded from Arrivals.Seed and its index only,
// so the offered sequence is identical across runtimes and schedules.
// Times are in ticks of whatever clock the caller runs on (engine
// cycles; wall nanoseconds for the load generator).
type ArrivalStream struct {
	rng        *rand.Rand
	calmMean   float64 // mean interarrival, calm state (ticks)
	burstMean  float64 // mean interarrival, burst state (ticks)
	calmDwell  float64 // mean dwell, calm state (ticks)
	burstDwell float64
	mmpp       bool
	inBurst    bool
	stateEnd   float64 // tick at which the current MMPP state ends
	clock      float64 // time of the last generated arrival
	next       float64 // time of the next arrival
}

// NewArrivalStream builds stream number stream of streams, which
// together offer a's aggregate rate on a clock of ticksPerSec ticks per
// second. a must be valid and open.
func NewArrivalStream(a Arrivals, stream, streams int, ticksPerSec float64) *ArrivalStream {
	g := &ArrivalStream{
		rng:      rand.New(rand.NewSource(a.Seed + int64(stream)*0x9E3779B97F4A7C + 1)),
		calmMean: ticksPerSec / (a.RateTPS / float64(streams)),
		mmpp:     a.Process == ArrivalMMPP,
	}
	if g.mmpp {
		g.burstMean = ticksPerSec / (a.BurstRateTPS / float64(streams))
		g.calmDwell = float64(a.CalmCycles)
		g.burstDwell = float64(a.BurstCycles)
		g.stateEnd = g.rng.ExpFloat64() * g.calmDwell
	}
	g.step()
	return g
}

// step draws the next arrival. MMPP state switches use the memorylessness
// of the exponential: a gap that would cross the state boundary is
// discarded and redrawn at the boundary under the new state's rate, which
// is the exact simulation of the modulated process.
func (g *ArrivalStream) step() {
	for {
		mean := g.calmMean
		if g.inBurst {
			mean = g.burstMean
		}
		gap := g.rng.ExpFloat64() * mean
		if !g.mmpp || g.clock+gap <= g.stateEnd {
			g.clock += gap
			g.next = g.clock
			return
		}
		g.clock = g.stateEnd
		g.inBurst = !g.inBurst
		dwell := g.calmDwell
		if g.inBurst {
			dwell = g.burstDwell
		}
		g.stateEnd = g.clock + g.rng.ExpFloat64()*dwell
	}
}

// Peek returns the next arrival time without consuming it.
func (g *ArrivalStream) Peek() uint64 { return uint64(g.next) }

// Take consumes and returns the next arrival time.
func (g *ArrivalStream) Take() uint64 {
	t := uint64(g.next)
	g.step()
	return t
}

// admitQueue is one worker's admission queue: a ring of arrival
// timestamps. With a positive bound, push rejects when full (the caller
// sheds the arrival); unbounded queues grow by doubling, modeling a
// system with admission control off.
type admitQueue struct {
	buf   []uint64
	head  int
	n     int
	bound int
}

func newAdmitQueue(bound int) *admitQueue {
	if bound > 0 {
		return &admitQueue{buf: make([]uint64, bound), bound: bound}
	}
	return &admitQueue{buf: make([]uint64, 64)}
}

func (q *admitQueue) push(t uint64) bool {
	if q.bound > 0 && q.n == q.bound {
		return false
	}
	if q.n == len(q.buf) {
		grown := make([]uint64, 2*len(q.buf))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
	return true
}

func (q *admitQueue) pop() (uint64, bool) {
	if q.n == 0 {
		return 0, false
	}
	t := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t, true
}

func (q *admitQueue) depth() int { return q.n }

// highWater is the queue depth at or above which priority shedding kicks
// in: half the bound, or a fixed depth for unbounded queues.
func highWater(bound int) int {
	if bound > 0 {
		if h := bound / 2; h > 0 {
			return h
		}
		return 1
	}
	return 64
}

// shedMaskFor resolves Config.ShedTypes (comma-separated transaction type
// names) against the workload's declared types into a bitmask over type
// indexes. A name the workload does not declare, or ShedTypes on a
// workload without a TxnTyper, is an error naming the field.
func shedMaskFor(typer TxnTyper, spec string) (uint64, error) {
	if spec == "" {
		return 0, nil
	}
	if typer == nil {
		return 0, errors.New("ShedTypes needs a workload that declares its transaction types (TxnTyper)")
	}
	names := typer.TxnTypes()
	var mask uint64
	for _, want := range strings.Split(spec, ",") {
		want = strings.TrimSpace(want)
		i := slices.Index(names, want)
		if i < 0 || i >= 64 {
			return 0, fmt.Errorf("ShedTypes names %q, which is not one of the workload's transaction types (%s)", want, strings.Join(names, ", "))
		}
		mask |= 1 << uint(i)
	}
	return mask, nil
}

// openLoop is the open-loop source. It ingests the arrivals due by the
// worker's clock — shedding on queue overflow and, above the high-water
// mark, by transaction type — hands out queued work with its arrival time
// as origin, and parks idle until the next arrival. Offered counts every
// in-window arrival once, as take consumes it; close takes those due
// after the worker's last boundary. Shed and depth observations are
// stamped at discovery so the sampler's intervals stay monotone.
type openLoop struct {
	w            *Worker
	wl           Workload
	gen          *ArrivalStream
	q            *admitQueue
	high         int
	shedMask     uint64
	warmEnd, end uint64
}

// take consumes the stream's next arrival at time now, counting it if it
// is in-window.
func (o *openLoop) take(now uint64) uint64 {
	t := o.gen.Take()
	if t >= o.warmEnd && t < o.end {
		o.w.tally(now).Offered++
	}
	return t
}

func (o *openLoop) next(now uint64) (work, bool) {
	w, p := o.w, o.w.P
	inWin := now >= o.warmEnd // and now < end: the loop has checked
	for o.gen.Peek() <= now {
		if !o.q.push(o.take(now)) && inWin {
			w.tally(now).Shed++
		}
		if inWin {
			w.tally(now).QueueDepth.Record(uint64(o.q.depth()))
		}
	}
	t, ok := o.q.pop()
	if !ok {
		if next := min(o.gen.Peek(), o.end); next > now {
			p.ParkTimeout(stats.Idle, next-now)
		}
		return work{}, true
	}
	txn := o.wl.Next(p)
	// TxnTypeOf's -1 for an undeclared type shifts past bit 63: no bit.
	if o.shedMask != 0 && o.q.depth() >= o.high && o.shedMask&(1<<uint(w.typer.TxnTypeOf(txn))) != 0 {
		if inWin {
			w.tally(now).Shed++
		}
		return work{}, true
	}
	return work{txn: txn, origin: t}, true
}

func (o *openLoop) close(now uint64) {
	for t := o.gen.Peek(); t <= now && t < o.end; t = o.gen.Peek() {
		o.take(now)
	}
}

package abyss

// The public surface of the engine's overload-robustness tier: open-loop
// arrival processes, admission control and load shedding, deadlines and
// retry budgets, fault injection, and graceful interruption. All of it is
// opt-in through RunConfig; a RunConfig with the overload fields at their
// zero values runs the paper's closed loop byte-identically to previous
// releases.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"abyss1000/internal/core"
	"abyss1000/internal/faultinject"
)

type (
	// Arrivals configures open-loop offered load for RunConfig.Arrivals:
	// the process (Poisson or MMPP), aggregate rates in transactions per
	// second, MMPP dwell times, and the arrival-stream seed. The zero
	// value keeps the closed loop.
	Arrivals = core.Arrivals

	// ArrivalProcess selects the arrival generator; see ArrivalClosed,
	// ArrivalPoisson and ArrivalMMPP.
	ArrivalProcess = core.ArrivalProcess

	// ArrivalStream is one seed-deterministic stream of arrival times
	// drawn from an Arrivals process: Peek returns the next arrival, Take
	// consumes it. See NewArrivalStream.
	ArrivalStream = core.ArrivalStream

	// FaultInjector maps (worker, now) to extra stall cycles injected at
	// transaction boundaries; see StalledWorkerFault, SlowPartitionFault,
	// LatencySpikeFault and ComposeFaults for stock injectors.
	FaultInjector = core.FaultInjector
)

// Arrival process selectors for Arrivals.Process.
const (
	// ArrivalClosed is the paper's closed loop (the default): one
	// outstanding transaction per worker.
	ArrivalClosed = core.ArrivalClosed

	// ArrivalPoisson offers a Poisson stream at Arrivals.RateTPS.
	ArrivalPoisson = core.ArrivalPoisson

	// ArrivalMMPP offers a bursty two-state Markov-modulated Poisson
	// stream: RateTPS when calm, BurstRateTPS in bursts, exponential
	// dwell times with means CalmCycles and BurstCycles.
	ArrivalMMPP = core.ArrivalMMPP
)

// ErrDeadline classifies a transaction abandoned by overload control —
// its deadline passed or its retry budget ran out before it could commit.
// Abandoned transactions count in Result.Deadlined, separately from
// concurrency-control aborts.
var ErrDeadline = core.ErrDeadline

// Interrupt asks an in-flight Run (or RunStream) on this DB to finish
// early: every worker completes its current transaction, stops drawing
// new work, and the Run returns a Result covering the window served so
// far. Safe to call from any goroutine — typically a signal handler —
// and safe to call before or after the run, or more than once. There is
// no rewind: once interrupted, the DB's single measurement is spent.
func (db *DB) Interrupt() { db.stop.Store(true) }

// Interrupted reports whether Interrupt has been called on this DB.
func (db *DB) Interrupted() bool { return db.stop.Load() }

// StalledWorkerFault freezes one worker for the window [from, until) of
// run time, modeling a descheduled or wedged thread.
func StalledWorkerFault(worker int, from, until uint64) FaultInjector {
	return faultinject.StalledWorker{Worker: worker, From: from, Until: until}
}

// SlowPartitionFault charges workers [first, first+count) an extra per-
// transaction penalty while [from, until) is open (zero until means the
// whole run), modeling a partition on a degraded device.
func SlowPartitionFault(first, count int, extra, from, until uint64) FaultInjector {
	return faultinject.SlowPartition{First: first, Count: count, Extra: extra, From: from, Until: until}
}

// LatencySpikeFault stalls every worker for duration cycles at the start
// of each period, modeling periodic interference (GC pauses, checkpoint
// flushes).
func LatencySpikeFault(period, duration uint64) FaultInjector {
	return faultinject.LatencySpike{Period: period, Duration: duration}
}

// ComposeFaults overlays injectors; the injected stall at any point is
// the maximum over the members.
func ComposeFaults(faults ...FaultInjector) FaultInjector {
	m := make(faultinject.Multi, len(faults))
	for i, f := range faults {
		m[i] = f
	}
	return m
}

// NewArrivalStream builds stream number stream of streams, which
// together offer a's aggregate rate on a clock of ticksPerSec ticks per
// second. It is the generator the engine's open-loop workers draw from
// (one stream per worker, on the runtime's clock); a load driver outside
// the engine — serve/client, one stream per connection on a nanosecond
// clock — offers the identical sequence for the same Arrivals. a must be
// valid (Arrivals.Validate) and open.
func NewArrivalStream(a Arrivals, stream, streams int, ticksPerSec float64) *ArrivalStream {
	return core.NewArrivalStream(a, stream, streams, ticksPerSec)
}

// ParseArrivals parses the -arrivals grammar shared by the command-line
// tools into a validated open-loop Arrivals seeded with seed:
//
//	poisson:RATE
//	mmpp:CALMRATE:BURSTRATE[:CALMDWELL:BURSTDWELL]
//
// Rates are aggregate transactions per second. Each dwell is the state's
// mean duration, written as a bare cycle count or as a Go duration
// ("200ms") — one cycle is one nanosecond on both runtimes' clocks and on
// the load generator's. Calm comes first throughout, like the rates. The
// three-part form defaults the dwells to 500 000 and 50 000 cycles:
// bursts one tenth as long as calm stretches.
func ParseArrivals(spec string, seed int64) (Arrivals, error) {
	parts := strings.Split(spec, ":")
	a := Arrivals{Seed: seed}
	var err error
	switch {
	case parts[0] == "poisson" && len(parts) == 2:
		a.Process = ArrivalPoisson
		a.RateTPS, err = strconv.ParseFloat(parts[1], 64)
	case parts[0] == "mmpp" && (len(parts) == 3 || len(parts) == 5):
		a.Process = ArrivalMMPP
		a.CalmCycles, a.BurstCycles = 500_000, 50_000
		if a.RateTPS, err = strconv.ParseFloat(parts[1], 64); err == nil {
			a.BurstRateTPS, err = strconv.ParseFloat(parts[2], 64)
		}
		if err == nil && len(parts) == 5 {
			if a.CalmCycles, err = parseDwell(parts[3]); err == nil {
				a.BurstCycles, err = parseDwell(parts[4])
			}
		}
	default:
		return Arrivals{}, fmt.Errorf("abyss: arrivals %q: want poisson:RATE or mmpp:CALMRATE:BURSTRATE[:CALMDWELL:BURSTDWELL]", spec)
	}
	if err == nil {
		err = a.Validate()
	}
	if err != nil {
		return Arrivals{}, fmt.Errorf("abyss: arrivals %q: %w", spec, err)
	}
	return a, nil
}

// parseDwell reads one dwell time: a bare cycle count, or a Go duration
// converted at one cycle per nanosecond.
func parseDwell(s string) (uint64, error) {
	if n, err := strconv.ParseUint(s, 10, 64); err == nil {
		return n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("dwell %q is neither a cycle count nor a duration", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("dwell %q must not be negative", s)
	}
	return uint64(d), nil
}

// Package stats implements the time-breakdown accounting used throughout the
// DBMS test-bed. The paper (§3.2) groups the cycles a worker thread spends
// into six components: USEFUL WORK, ABORT, TS ALLOCATION, INDEX, WAIT and
// MANAGER. Every operation in this repository is billed to exactly one of
// these components, and the per-experiment breakdown plots (Figs. 8b, 9b,
// 10b, 12b) are produced directly from these counters.
package stats

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Component identifies one of the six time-breakdown categories from §3.2 of
// the paper.
type Component int

const (
	// Useful is time spent executing application logic and operating on
	// tuples ("USEFUL WORK").
	Useful Component = iota
	// Abort is the overhead of rolling back an aborted transaction. As in
	// DBx1000, the cycles an aborted attempt spent on useful work, index
	// lookups and manager bookkeeping are re-billed to Abort when the
	// attempt fails.
	Abort
	// TsAlloc is time spent acquiring a unique timestamp from the
	// allocator ("TS ALLOCATION").
	TsAlloc
	// Index is time spent in hash and ordered indexes ("INDEX"): the lines
	// a probe or scan reads, and an insert's or remove's latch.
	Index
	// Wait is the total time a transaction waits, either for a lock (2PL)
	// or for a tuple version that is not ready yet (T/O) ("WAIT").
	Wait
	// Manager is time spent in the lock manager or timestamp manager,
	// excluding waiting ("MANAGER").
	Manager

	// Log is time spent on durability: encoding and appending write-ahead
	// log records and waiting for (or modeling) group-commit fsyncs. The
	// paper's evaluation is memory-only, so Log is this repository's
	// extension beyond the six §3.2 components: it is always zero unless a
	// WAL is attached, and the golden determinism signature prints only
	// the first NumPaperComponents so enabling accounting-only logging
	// cannot disturb it.
	Log

	// Idle is time a worker spends with no transaction to run: in the
	// open-loop serving mode (core.Config.Arrivals) it is the wait until
	// the next arrival. Like Log it is an extension beyond the paper's
	// taxonomy — closed-loop runs never bill it, so the golden signature
	// and the breakdown summaries of existing experiments are unchanged.
	Idle

	// NumComponents is the number of breakdown components.
	NumComponents
)

// NumPaperComponents is the number of breakdown components in the paper's
// §3.2 taxonomy (everything before the Log extension). The golden
// signature and other paper-fidelity surfaces iterate to this bound.
const NumPaperComponents = Log

var componentNames = [NumComponents]string{
	"Useful Work", "Abort", "Ts Alloc.", "Index", "Wait", "Manager", "Log", "Idle",
}

// componentKeys are the stable machine-readable identifiers used by the
// JSON and CSV serializations. They are part of the output format; do not
// reorder or rename.
var componentKeys = [NumComponents]string{
	"useful", "abort", "ts_alloc", "index", "wait", "manager", "log", "idle",
}

// String returns the display name used in the paper's breakdown figures.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// Key returns the stable machine-readable identifier for c, as used in
// JSON objects and CSV column names.
func (c Component) Key() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component_%d", int(c))
	}
	return componentKeys[c]
}

// Breakdown accumulates cycles per component for a single worker/core. It is
// not safe for concurrent use; in the simulator each Proc owns one, and in
// the native runtime each worker goroutine owns one (merged after the run).
type Breakdown struct {
	buckets [NumComponents]uint64

	// attempt tracks the cycles billed during the current transaction
	// attempt so they can be re-billed to Abort if the attempt fails.
	attempt [NumComponents]uint64
	inTxn   bool
}

// Add bills cycles to component c, tracking them against the current attempt
// when one is open.
func (b *Breakdown) Add(c Component, cycles uint64) {
	b.buckets[c] += cycles
	if b.inTxn {
		b.attempt[c] += cycles
	}
}

// AddPending drains a batch of per-component cycles into b, billing each
// non-zero bucket as one Add under the current attempt state. Runtimes that
// batch their hot-path accounting (sim, native) flush through this before
// exposing the Breakdown, so batched and unbatched billing are
// bit-identical.
func (b *Breakdown) AddPending(pend *[NumComponents]uint64) {
	for c, v := range pend {
		if v != 0 {
			b.Add(Component(c), v)
			pend[c] = 0
		}
	}
}

// BeginAttempt opens a new transaction attempt. Cycles billed until
// EndAttempt are tracked so an abort can re-bill them.
func (b *Breakdown) BeginAttempt() {
	b.inTxn = true
	for i := range b.attempt {
		b.attempt[i] = 0
	}
}

// CommitAttempt closes the current attempt, leaving its billing as-is.
func (b *Breakdown) CommitAttempt() {
	b.inTxn = false
}

// AbortAttempt closes the current attempt and re-bills its Useful, Index and
// Manager cycles to Abort, mirroring DBx1000's accounting: work performed by
// an attempt that ultimately aborts was wasted. TsAlloc and Wait keep their
// own buckets (the paper reports them separately even for aborted work).
func (b *Breakdown) AbortAttempt() {
	b.inTxn = false
	moved := b.attempt[Useful] + b.attempt[Index] + b.attempt[Manager]
	b.buckets[Useful] -= b.attempt[Useful]
	b.buckets[Index] -= b.attempt[Index]
	b.buckets[Manager] -= b.attempt[Manager]
	b.buckets[Abort] += moved
}

// Get returns the cycles accumulated for component c.
func (b *Breakdown) Get(c Component) uint64 { return b.buckets[c] }

// Total returns the cycles accumulated across all components.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b.buckets {
		t += v
	}
	return t
}

// Merge adds other's buckets into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for i := range b.buckets {
		b.buckets[i] += other.buckets[i]
	}
}

// Reset zeroes all buckets.
func (b *Breakdown) Reset() {
	*b = Breakdown{}
}

// Fractions returns each component's share of the total, or all zeros if no
// cycles have been billed.
func (b *Breakdown) Fractions() [NumComponents]float64 {
	var f [NumComponents]float64
	t := b.Total()
	if t == 0 {
		return f
	}
	for i, v := range b.buckets {
		f[i] = float64(v) / float64(t)
	}
	return f
}

// breakdownJSON fixes the serialized field order; its json tags must match
// componentKeys in Component order.
type breakdownJSON struct {
	Useful  uint64 `json:"useful"`
	Abort   uint64 `json:"abort"`
	TsAlloc uint64 `json:"ts_alloc"`
	Index   uint64 `json:"index"`
	Wait    uint64 `json:"wait"`
	Manager uint64 `json:"manager"`
	Log     uint64 `json:"log"`
	Idle    uint64 `json:"idle"`
}

// MarshalJSON serializes the per-component cycle totals as an object with
// stable keys (Component.Key) in Component order. Only the committed
// buckets are serialized; the transient open-attempt tracking state is
// not part of the wire format.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	return json.Marshal(breakdownJSON{
		Useful:  b.buckets[Useful],
		Abort:   b.buckets[Abort],
		TsAlloc: b.buckets[TsAlloc],
		Index:   b.buckets[Index],
		Wait:    b.buckets[Wait],
		Manager: b.buckets[Manager],
		Log:     b.buckets[Log],
		Idle:    b.buckets[Idle],
	})
}

// UnmarshalJSON restores the per-component cycle totals written by
// MarshalJSON. The restored Breakdown has no attempt in progress.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var v breakdownJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*b = Breakdown{}
	b.buckets[Useful] = v.Useful
	b.buckets[Abort] = v.Abort
	b.buckets[TsAlloc] = v.TsAlloc
	b.buckets[Index] = v.Index
	b.buckets[Wait] = v.Wait
	b.buckets[Manager] = v.Manager
	b.buckets[Log] = v.Log
	b.buckets[Idle] = v.Idle
	return nil
}

// FormatBreakdown renders a breakdown as a one-line percentage summary, e.g.
// "Useful Work 42.0% | Abort 10.0% | ...". The six paper components are
// always printed; the Log extension appears only when a WAL actually
// billed cycles to it, so memory-only runs read exactly as before.
func FormatBreakdown(b *Breakdown) string {
	f := b.Fractions()
	parts := make([]string, 0, NumComponents)
	for i := Component(0); i < NumComponents; i++ {
		if i >= NumPaperComponents && b.buckets[i] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %5.1f%%", componentNames[i], f[i]*100))
	}
	return strings.Join(parts, " | ")
}

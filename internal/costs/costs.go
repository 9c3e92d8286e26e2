// Package costs centralizes the substrate-independent cycle costs of DBMS
// operations. The mesh-distance-dependent parts of an operation (NUCA
// traversal, line transfers) are charged by the runtime primitives; these
// constants cover the instruction-path lengths of the engine itself.
//
// A memory access is billed for the bytes it moves (rt.Proc's MemRead and
// MemWrite): an in-place row read or write names the columns it touches
// and pays for those, while a copy — an undo image, a T/O or OCC read
// copy, an MVCC version, a log record — moves and pays for whole rows
// (CopyCost).
//
// The absolute values are calibrated to place single-core YCSB throughput
// in the tens of thousands of transactions per second at the 1 GHz target
// clock, the same order as the paper's engine; the experiments depend on
// the *ratios* (a tuple copy costs ~bytes moved; a manager operation costs
// tens of cycles; timestamp allocation under contention costs a cross-chip
// round trip), which mirror the paper's cost structure.
package costs

const (
	// TxnSetup is the fixed per-transaction bookkeeping (building the
	// context, resetting workspaces).
	TxnSetup = 100

	// UsefulPerRow is the application logic executed per row access
	// (YCSB transactions "do not perform any computation", so this is
	// just the query-invocation path).
	UsefulPerRow = 60

	// IndexProbe is the instruction cost of hashing a key and scanning a
	// bucket, on top of the NUCA access to the bucket's cache line (a
	// probe is a read section, so it moves no latch line).
	IndexProbe = 30

	// IndexInsert is the instruction cost of adding an entry to a bucket.
	IndexInsert = 40

	// ManagerOp is one lock-manager or timestamp-manager bookkeeping
	// step (queue manipulation, metadata update), excluding latching.
	ManagerOp = 20

	// CopyPerByteShift scales tuple copies: cost = bytes >> CopyPerByteShift
	// (8 bytes per cycle, a memcpy through the core's pipeline).
	CopyPerByteShift = 3

	// AllocBase is the per-allocation cost of the custom per-thread
	// memory pools (§4.1): pointer bump plus bookkeeping.
	AllocBase = 15

	// GlobalAllocBase is the per-allocation instruction cost of the
	// deliberately pessimized centralized allocator used by the malloc
	// ablation; it also serializes on a latch.
	GlobalAllocBase = 60

	// AbortFixed is the fixed cost of rolling back a transaction, on top
	// of restoring undo images (which pay copy costs).
	AbortFixed = 80

	// BackoffBase is the default mean restart backoff after an abort.
	// DBx1000 restarts aborted transactions after a short randomized
	// penalty so the restarted transaction does not instantly re-collide.
	BackoffBase = 1000

	// WaitCheckInterval is how long a waiting transaction parks before
	// re-checking its grant state when no explicit wakeup arrives.
	WaitCheckInterval = 5000

	// DeadlockSearchPerEdge is the cost of traversing one waits-for edge
	// during DL_DETECT's cycle search.
	DeadlockSearchPerEdge = 10

	// TsClockRead is the cost of reading the core-local synchronized
	// clock (the paper's clock-based allocation).
	TsClockRead = 3

	// TsMutexHold is the critical-section length of the mutex-based
	// allocator (increment + bookkeeping while holding the mutex).
	TsMutexHold = 20

	// LogAppend is the fixed cost of encoding and appending one commit
	// record to the write-ahead log buffer (framing, CRC, bookkeeping),
	// on top of the copy cost of the record body.
	LogAppend = 120

	// LogFsync is the modeled cost of one group-commit fsync, amortized
	// over the group by billing it to the append that seals the group.
	// ~10 µs at the 1 GHz target clock: the order of a fast NVMe flush.
	LogFsync = 10_000
)

// CopyCost returns the cycles to copy n bytes through the core.
func CopyCost(n uint64) uint64 { return n >> CopyPerByteShift }

// Package core implements the lightweight main-memory DBMS of §3.2: a
// row-store with hash indexes, a pluggable concurrency-control interface,
// one worker thread per core pulling transactions from a per-worker queue,
// and time-breakdown accounting over the six components the paper reports.
//
// The engine deliberately contains only what the experiments need — the
// paper's own justification: "we can ensure that no other bottlenecks
// exist other than concurrency control."
package core

import (
	"errors"

	"abyss1000/internal/index"
	"abyss1000/internal/mem"
	"abyss1000/internal/rt"
	"abyss1000/internal/storage"
	"abyss1000/internal/wal"
)

// ErrAbort is returned by scheme operations when the transaction must be
// aborted due to a concurrency-control conflict. The engine rolls the
// transaction back and restarts it (after a randomized backoff).
var ErrAbort = errors.New("core: transaction aborted by concurrency control")

// ErrUserAbort is returned by transaction logic to request a rollback (the
// paper: TPC-C transactions "can also abort because of certain conditions
// in their program logic"). Per the TPC-C specification such rollbacks are
// completed work: the engine rolls back but does not restart.
var ErrUserAbort = errors.New("core: transaction aborted by program logic")

// DB is a database instance bound to a runtime: catalog, indexes and
// configuration shared by all workers.
type DB struct {
	RT      rt.Runtime
	Catalog *storage.Catalog
	indexes map[string]*index.Hash

	// indexOrder holds the indexes in registration order; the position is
	// the ordinal WAL records use, so recovery maps ordinals back to
	// indexes as long as setup registers them in the same order (it does:
	// workload setup is deterministic).
	indexOrder []*index.Hash
	indexOrd   map[*index.Hash]int

	// Ordered secondary indexes keep their own ordinal space, mirroring
	// the hash registry (commit records carry both ordinals).
	ordIndexes map[string]*index.Ordered
	ordOrder   []*index.Ordered
	ordOrd     map[*index.Ordered]int

	// NParts is the number of H-STORE partitions (always the worker
	// count, as in the paper's experiments).
	NParts int

	// GlobalAlloc, when non-nil, replaces the per-worker arenas with the
	// centralized allocator (the §4.1 malloc ablation).
	GlobalAlloc *mem.GlobalPool

	// Wal, when non-nil, is the attached write-ahead log: every commit
	// appends its after-images and recovery replays them. Nil means
	// durability is off and the commit path is exactly the pre-durability
	// one (the nil check is the only overhead).
	Wal *wal.Writer

	// walEpoch counts measurement runs on this DB; an epoch record opens
	// each run's log span so replay resets its version floors when a new
	// run restarts timestamp allocation.
	walEpoch uint64

	// Cap, when non-nil, records committed read/write versions for the
	// serializability checker (set per run by Config.Check). Like the
	// WAL it is accounting-only: nil checks are the only overhead when
	// off, and the schedule is unchanged when on.
	Cap *Capture
}

// NewDB creates an empty database on r.
func NewDB(r rt.Runtime) *DB {
	return &DB{
		RT:         r,
		Catalog:    storage.NewCatalog(),
		indexes:    make(map[string]*index.Hash),
		indexOrd:   make(map[*index.Hash]int),
		ordIndexes: make(map[string]*index.Ordered),
		ordOrd:     make(map[*index.Ordered]int),
		NParts:     r.NumProcs(),
	}
}

// AddIndex builds and registers a hash index named name over t.
func (db *DB) AddIndex(name string, t *storage.Table, minBuckets int) *index.Hash {
	h := index.New(db.RT, t, minBuckets)
	db.indexes[name] = h
	db.indexOrd[h] = len(db.indexOrder)
	db.indexOrder = append(db.indexOrder, h)
	return h
}

// Indexes returns the registered indexes in ordinal (registration) order.
func (db *DB) Indexes() []*index.Hash { return db.indexOrder }

// Index returns the named index, or panics (missing indexes are
// programming errors in workload definitions).
func (db *DB) Index(name string) *index.Hash {
	h, ok := db.indexes[name]
	if !ok {
		panic("core: no index " + name)
	}
	return h
}

// AddOrderedIndex builds and registers an ordered secondary index named
// name over t. Like hash indexes, registration order is the ordinal WAL
// records and checkpoints use, so deterministic setup must register
// ordered indexes in a fixed order.
func (db *DB) AddOrderedIndex(name string, t *storage.Table) *index.Ordered {
	o := index.NewOrdered(db.RT, t)
	db.ordIndexes[name] = o
	db.ordOrd[o] = len(db.ordOrder)
	db.ordOrder = append(db.ordOrder, o)
	return o
}

// OrderedIndexes returns the registered ordered indexes in ordinal order.
func (db *DB) OrderedIndexes() []*index.Ordered { return db.ordOrder }

// OrderedIndex returns the named ordered index, or panics.
func (db *DB) OrderedIndex(name string) *index.Ordered {
	o, ok := db.ordIndexes[name]
	if !ok {
		panic("core: no ordered index " + name)
	}
	return o
}

// Txn is one transaction: program logic intermixed with query invocations
// (§3.2), executed serially by its worker.
type Txn interface {
	// Run executes the transaction body against tx. It returns nil to
	// commit, ErrUserAbort to roll back, or propagates ErrAbort from the
	// scheme.
	Run(tx *TxnCtx) error

	// Partitions returns the sorted set of partitions the transaction
	// will access, which H-STORE requires to be known up front (§2.2).
	// Schemes other than H-STORE ignore it; implementations may return
	// nil for them.
	Partitions() []int
}

// Workload generates each worker's transaction stream. Implementations
// keep per-worker state indexed by Proc ID so that Next is cheap and
// deterministic per worker.
type Workload interface {
	// Next returns the next transaction for worker p. The returned Txn
	// is owned by the worker until it commits (implementations may reuse
	// one object per worker).
	Next(p rt.Proc) Txn
}

// CommitHook is an optional interface for Txn: when implemented, the
// engine invokes Committed exactly once after the transaction commits
// (not after a program-logic rollback). The verification workloads in
// internal/history use it to log precisely the committed histories.
type CommitHook interface {
	Committed()
}

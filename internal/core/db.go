// Package core implements the lightweight main-memory DBMS of §3.2: a
// row-store with hash (and ordered) indexes behind one index interface, a
// pluggable concurrency-control interface, one worker thread per core
// pulling transactions from a per-worker queue, and time-breakdown
// accounting over the six components the paper reports.
//
// The engine deliberately contains only what the experiments need — the
// paper's own justification: "we can ensure that no other bottlenecks
// exist other than concurrency control."
package core

import (
	"errors"
	"maps"
	"slices"

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

// DB is a database instance bound to a runtime: the one catalogue of
// tables and indexes, and the configuration shared by all workers.
type DB struct {
	RT      rt.Runtime
	Catalog *storage.Catalog

	// indexes holds every index, hash and ordered alike, in registration
	// order; the position is the ordinal WAL records use (each index also
	// carries it), so recovery maps ordinals back to indexes as long as
	// setup registers them in the same order (it does: workload setup is
	// deterministic). indexByName is the same set: one namespace.
	indexes     []index.Index
	indexByName map[string]index.Index

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
		RT:          r,
		Catalog:     storage.NewCatalog(),
		indexByName: make(map[string]index.Index),
		NParts:      r.NumProcs(),
	}
}

// register enters x into the catalogue under name and assigns its WAL
// ordinal; a taken name panics, like a duplicate table name.
func (db *DB) register(name string, x index.Index) {
	if _, dup := db.indexByName[name]; dup {
		panic("core: index " + name + " already exists")
	}
	x.SetOrdinal(len(db.indexes))
	db.indexes = append(db.indexes, x)
	db.indexByName[name] = x
}

// AddIndex builds and registers a hash index named name over t.
func (db *DB) AddIndex(name string, t *storage.Table, minBuckets int) *index.Hash {
	h := index.New(db.RT, t, minBuckets)
	db.register(name, h)
	return h
}

// AddOrderedIndex builds and registers an ordered secondary index named
// name over t.
func (db *DB) AddOrderedIndex(name string, t *storage.Table) *index.Ordered {
	o := index.NewOrdered(db.RT, t)
	db.register(name, o)
	return o
}

// LookupIndex returns the named index and whether it exists.
func (db *DB) LookupIndex(name string) (index.Index, bool) {
	x, ok := db.indexByName[name]
	return x, ok
}

// Index returns the named index, or panics (missing indexes are
// programming errors in workload definitions).
func (db *DB) Index(name string) index.Index {
	x, ok := db.indexByName[name]
	if !ok {
		panic("core: no index " + name)
	}
	return x
}

// IndexNames returns every registered index name, sorted.
func (db *DB) IndexNames() []string { return slices.Sorted(maps.Keys(db.indexByName)) }

// Txn is one transaction: program logic intermixed with query invocations
// (§3.2), executed serially by its worker. It may also implement
// Generator (mix.go) and RollbackDeclarer.
type Txn interface {
	// Run executes the transaction body against tx. It returns nil to
	// commit, ErrUserAbort to roll back, or propagates ErrAbort from the
	// scheme.
	Run(tx *TxnCtx) error

	// Partitions returns the partitions the transaction will touch, in
	// any order, repeats allowed, which H-STORE requires to be known up
	// front (§2.2); H-STORE sorts and dedups the set itself. Schemes
	// other than H-STORE ignore it; implementations may return nil for
	// them.
	Partitions() []int
}

// RollbackDeclarer is an optional interface for Txn: MayRollBack reports
// whether Run may return ErrUserAbort in this execution. It is read at
// Begin, after Generate has drawn the inputs. H-STORE, which nothing but
// program logic can abort, takes no before-image of a row written by a
// transaction that says false, and panics if that transaction rolls back
// after writing; the other schemes ignore it, because a concurrency-control
// abort can undo any of their writes. A transaction without the method
// may roll back.
type RollbackDeclarer interface {
	MayRollBack() bool
}

// MayRollBack reports whether t may roll itself back: its RollbackDeclarer
// answer, or true when it declares nothing.
func MayRollBack(t Txn) bool {
	if d, ok := t.(RollbackDeclarer); ok {
		return d.MayRollBack()
	}
	return true
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

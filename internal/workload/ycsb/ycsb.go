// Package ycsb implements the Yahoo! Cloud Serving Benchmark workload of
// §3.3: one table of (key, 10 × 100-byte fields) rows with a hash primary
// index; transactions of (by default) 16 independent point accesses, each
// a read or an update, with keys drawn from a Zipfian distribution whose
// theta parameter controls contention. The partitioned variants used by
// the H-STORE experiments (§5.5) hash tuples to partitions by primary key
// and generate single- or multi-partition transactions.
package ycsb

import (
	"encoding/binary"
	"slices"
	"sync"

	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/rt"
	"abyss1000/internal/storage"
	"abyss1000/internal/zipf"
)

// Config parameterizes the workload. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Rows is the table size. The paper uses 20M rows (~20GB); defaults
	// here are scaled down — contention depends on theta, not absolute
	// size (see DESIGN.md).
	Rows int

	// Fields and FieldSize shape the tuple: Fields columns of FieldSize
	// bytes after the 8-byte primary key (paper: 10 × 100B).
	Fields    int
	FieldSize int

	// ReqPerTxn is the number of tuple accesses per transaction
	// (paper default: 16).
	ReqPerTxn int

	// ReadPct is the probability an access is a read; the rest are
	// updates. The paper's read-only workload is 1.0, write-intensive
	// is 0.5 ("each access will modify the tuple with a 50%
	// probability").
	ReadPct float64

	// Theta is the Zipfian skew (0 uniform, 0.6 medium, 0.8 high).
	Theta float64

	// Ordered sorts each transaction's accesses by key, removing the
	// need for deadlock detection (the Fig. 4 thrashing experiment).
	Ordered bool

	// Partitioned generates partition-aware transactions for H-STORE:
	// tuples belong to partition (key mod NParts).
	Partitioned bool

	// MPFraction is the fraction of multi-partition transactions when
	// Partitioned (Fig. 15a).
	MPFraction float64

	// MPParts is how many partitions a multi-partition transaction
	// touches (Fig. 15b); minimum 2 to be "multi".
	MPParts int
}

// DefaultConfig returns the paper's experiment defaults at laptop scale.
func DefaultConfig() Config {
	return Config{
		Rows:      65536,
		Fields:    10,
		FieldSize: 100,
		ReqPerTxn: 16,
		ReadPct:   0.5,
		Theta:     0.6,
	}
}

// Workload is a populated YCSB database plus per-worker generators.
type Workload struct {
	cfg   Config
	db    *core.DB
	table *storage.Table
	idx   *index.Hash
	fcol  []int // field column indexes

	gens []*zipf.Generator
	txns []txn
}

// Build creates the table and index on db, populates Rows tuples, and
// prepares per-worker transaction generators.
func Build(db *core.DB, cfg Config) *Workload {
	if cfg.ReqPerTxn <= 0 || cfg.Rows <= 0 {
		panic("ycsb: invalid config")
	}
	cols := make([]storage.Col, 0, cfg.Fields+1)
	cols = append(cols, storage.Col{Name: "KEY", Width: 8})
	for i := 0; i < cfg.Fields; i++ {
		cols = append(cols, storage.Col{Name: fieldName(i), Width: cfg.FieldSize})
	}
	schema := storage.NewSchema("USERTABLE", cols...)
	n := db.RT.NumProcs()
	table := db.Catalog.Add(schema, cfg.Rows, cfg.Rows, n)
	idx := db.AddIndex("USERTABLE_PK", table, cfg.Rows)

	// Index.LoadAll fills the index on a goroutine beside the row pass:
	// neither reads what the other writes. No transaction looks at field
	// contents beyond reading row[8], so a row's payload is one SplitMix64
	// word seeded by the row number, written little-endian as its first
	// min(8, Fields × FieldSize) bytes and zero after: the content is a
	// function of the row alone, and loading a row costs one hash and one
	// cache line.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		idx.LoadAll(cfg.Rows, func(i int) uint64 { return uint64(i) })
	}()
	var word [8]byte
	payload := word[:min(8, cfg.Fields*cfg.FieldSize)]
	for i := 0; i < cfg.Rows; i++ {
		row := table.LoadRow(i)
		schema.PutU64(row, 0, uint64(i))
		binary.LittleEndian.PutUint64(word[:], zipf.Mix64(uint64(i)))
		copy(row[8:], payload)
	}
	wg.Wait()

	w := &Workload{cfg: cfg, db: db, table: table, idx: idx}
	for f := 1; f <= cfg.Fields; f++ {
		w.fcol = append(w.fcol, f)
	}
	w.gens = make([]*zipf.Generator, n)
	w.txns = make([]txn, n)
	gen := zipf.New(uint64(cfg.Rows), cfg.Theta) // memoize zeta once
	for i := 0; i < n; i++ {
		w.gens[i] = gen
		w.txns[i] = txn{
			wl:   w,
			keys: make([]uint64, 0, cfg.ReqPerTxn),
			isWr: make([]bool, 0, cfg.ReqPerTxn),
		}
	}
	return w
}

func fieldName(i int) string {
	return "FIELD" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// Table returns the YCSB table (for tests and checkers).
func (w *Workload) Table() *storage.Table { return w.table }

// txn is a reusable YCSB transaction.
type txn struct {
	wl    *Workload
	keys  []uint64
	isWr  []bool
	parts []int
}

// Next implements core.Workload.
func (w *Workload) Next(p rt.Proc) core.Txn {
	t := &w.txns[p.ID()]
	t.generate(p, w)
	return t
}

// txnTypeNames is the single YCSB transaction type (§3.3: every
// transaction is the same scatter of ReqPerTxn point accesses).
var txnTypeNames = []string{"ycsb"}

// TxnTypes implements core.TxnTyper.
func (w *Workload) TxnTypes() []string { return txnTypeNames }

// TxnTypeOf implements core.TxnTyper.
func (w *Workload) TxnTypeOf(core.Txn) int { return 0 }

// hasKey reports whether k was already chosen for this transaction; the
// paper's transactions access 16 distinct records.
func (t *txn) hasKey(k uint64) bool {
	for _, e := range t.keys {
		if e == k {
			return true
		}
	}
	return false
}

// generate fills the transaction with ReqPerTxn accesses.
func (t *txn) generate(p rt.Proc, w *Workload) {
	cfg := &w.cfg
	rng := p.Rand()
	t.keys = t.keys[:0]
	t.isWr = t.isWr[:0]
	t.parts = t.parts[:0]

	nparts := w.db.NParts
	if cfg.Partitioned {
		home := p.ID() % nparts
		t.parts = append(t.parts, home)
		if cfg.MPFraction > 0 && rng.Float64() < cfg.MPFraction && cfg.MPParts > 1 && nparts > 1 {
			want := cfg.MPParts
			if want > nparts {
				want = nparts
			}
			for len(t.parts) < want {
				cand := rng.Intn(nparts)
				dup := false
				for _, q := range t.parts {
					if q == cand {
						dup = true
						break
					}
				}
				if !dup {
					t.parts = append(t.parts, cand)
				}
			}
			// The key layout below spreads the accesses round-robin
			// over the set in ascending partition order (the golden's
			// multi-partition H-STORE row pins it); H-STORE orders its
			// own locks and needs no order from the set.
			slices.Sort(t.parts)
		}
	}

	for i := 0; i < cfg.ReqPerTxn; i++ {
		var key uint64
		for tries := 0; ; tries++ {
			rank := w.gens[p.ID()].Next(rng)
			key = zipf.Scramble(rank, uint64(cfg.Rows))
			if cfg.Partitioned {
				// Redirect the key into one of the transaction's
				// partitions (round-robin over the set).
				part := uint64(t.parts[i%len(t.parts)])
				key = key - key%uint64(nparts) + part
				if key >= uint64(cfg.Rows) {
					key -= uint64(nparts)
				}
			}
			if !t.hasKey(key) {
				break
			}
			if tries > 100 {
				// Pathological skew: linear-probe to a free key.
				for t.hasKey(key) {
					key = (key + uint64(nparts)) % uint64(cfg.Rows)
				}
				break
			}
		}
		t.keys = append(t.keys, key)
		t.isWr = append(t.isWr, rng.Float64() >= cfg.ReadPct)
	}

	if cfg.Ordered {
		// Primary-key order (Fig. 4): simple insertion sort, keeping
		// key/op pairs aligned.
		for i := 1; i < len(t.keys); i++ {
			for j := i; j > 0 && t.keys[j] < t.keys[j-1]; j-- {
				t.keys[j], t.keys[j-1] = t.keys[j-1], t.keys[j]
				t.isWr[j], t.isWr[j-1] = t.isWr[j-1], t.isWr[j]
			}
		}
	}
}

// Run implements core.Txn.
func (t *txn) Run(tx *core.TxnCtx) error {
	w := t.wl
	var sink byte
	for i := range t.keys {
		slot, ok := tx.Lookup(w.idx, t.keys[i])
		if !ok {
			panic("ycsb: key vanished from primary index")
		}
		if t.isWr[i] {
			f := w.fcol[i%len(w.fcol)]
			val := tx.P.Rand().Uint64()
			row, err := tx.UpdateRow(w.table, slot, f)
			if err != nil {
				return err
			}
			b := w.table.Schema.Bytes(row, f)
			b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
		} else {
			row, err := tx.Read(w.table, slot, 1)
			if err != nil {
				return err
			}
			sink ^= row[8] // consume the read: row[8] is column 1's first byte
		}
	}
	_ = sink
	return nil
}

// Partitions implements core.Txn.
func (t *txn) Partitions() []int { return t.parts }

// MayRollBack implements core.RollbackDeclarer: a YCSB transaction never
// rolls back.
func (t *txn) MayRollBack() bool { return false }

var _ core.Workload = (*Workload)(nil)
var _ core.TxnTyper = (*Workload)(nil)
var _ core.Txn = (*txn)(nil)

// Package chaos generates randomized workloads for the serializability
// conformance harness: a seeded generator draws a schema (1-3 tables of
// varying row counts and widths), a hot-set skew per table, and a
// weighted mix of read-only, read-modify-write, mixed, insert and
// abort-prone procedures — then the run executes it with history capture
// on (abyss.RunConfig.Check) and the checker must find the committed
// history serializable and final-state equivalent to a serial replay.
//
// The point is coverage the hand-written correctness workloads cannot
// give: every seed is a different shape — different contention, footprint
// mix, insert pressure and rollback pattern — so sweeping seeds across
// schemes and runtimes hunts for interleavings the designed tests never
// stage. Everything is deterministic per seed: the same Config.Seed
// produces the same schema and the same per-worker draw streams, so a
// failing (seed, scheme, cores) triple is a one-line repro
// (`abyss-sim -check -workload chaos -scheme S -cores C -seed N`).
//
// Every table also carries an ordered index, and a per-seed RangeScan
// procedure reads (and sometimes rewrites) the rows an index range scan
// returns. One conformance caveat: range scans are latch-consistent but
// not phantom-protected — no scheme implements next-key locking, so a
// concurrent committed insert may or may not appear in an overlapping
// scan, and the engine promises only tuple-level serializability. The
// history checker shares that granularity (it verifies the reads and
// writes of individual tuples, not predicate stability), so the sweep
// still passes with scan-bearing procedures; range isolation weaker than
// full serializability is documented engine behavior, not a checker gap
// being papered over.
//
// Like abyss1000/workloads/smallbank, the package imports only the public
// abyss API and registers itself ("chaos") on import.
package chaos

import (
	"fmt"
	"math/rand"

	"abyss1000/abyss"
)

// Procedure names, in mix order.
const (
	ProcReadOnly   = "ReadOnly"
	ProcRMW        = "RMW"
	ProcMixed      = "Mixed"
	ProcInsert     = "Insert"
	ProcAbortProne = "AbortProne"
	ProcRangeScan  = "RangeScan"
)

// Config parameterizes the generator. Use DefaultConfig as the base.
type Config struct {
	// Seed drives every shape decision (table count, sizes, skew, mix
	// weights) and, via the run's worker RNGs, every access draw. Equal
	// seeds on equal Options give equal workloads.
	Seed int64

	// MaxRows bounds each table's loaded row count; actual sizes are
	// drawn in [2, MaxRows]. Small tables mean real conflicts.
	MaxRows int

	// Ops bounds the row accesses per transaction; actual counts are
	// drawn in [1, Ops].
	Ops int
}

// DefaultConfig returns the sweep-sized generator: tiny tables (heavy
// contention) and short transactions.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, MaxRows: 48, Ops: 4}
}

// insertBudget is the per-worker insert allowance: each table reserves
// this many free slots per worker, and insert procedures fall back to
// RMW once a worker has drawn that many inserts, so a long run can never
// exhaust an insert segment.
const insertBudget = 96

// chaosTable is one generated table: storage, indexes and its skew. Every
// table carries both a hash index and an ordered index over the same
// keys, so range-scan procedures and inserts exercise the ordered path
// under the same contention the point accesses generate.
type chaosTable struct {
	tab    *abyss.Table
	idx    *abyss.Index
	ord    *abyss.OrderedIndex
	rows   int     // loaded rows
	hotN   int     // hot-set size, in [1, rows]
	hotPct float64 // probability a draw lands in the hot set
}

// Workload is a generated chaos workload ready for Run. The embedded Mix
// is its Next, its TxnTypes and its Procedures: the active procedure
// names in mix order (seeds differ: the optional procedures are drawn per
// seed).
type Workload struct {
	*abyss.Mix
	cfg    Config
	tables []chaosTable
	rows   int // loaded rows over all tables: the distinct (table, slot) pairs a transaction can draw
	nparts int
}

// Build draws the workload shape from cfg.Seed, creates and populates
// its tables on db, and returns the ready Workload.
func Build(db *abyss.DB, cfg Config) (*Workload, error) {
	if cfg.MaxRows < 2 {
		return nil, fmt.Errorf("chaos: MaxRows must be >= 2, got %d", cfg.MaxRows)
	}
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("chaos: Ops must be >= 1, got %d", cfg.Ops)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{cfg: cfg, nparts: db.Cores()}

	ntables := 1 + rng.Intn(3)
	headroom := db.Cores() * insertBudget
	for i := 0; i < ntables; i++ {
		rows := 2 + rng.Intn(cfg.MaxRows-1)
		cols := []abyss.Col{{Name: "KEY", Width: 8}, {Name: "VAL", Width: 8}}
		if rng.Intn(2) == 0 {
			// A pad column varies the row size (and so the images the
			// oracle replays) across seeds.
			cols = append(cols, abyss.Col{Name: "PAD", Width: 4 * (1 + rng.Intn(4))})
		}
		name := fmt.Sprintf("CHAOS_%d", i)
		tab, err := db.CreateTable(abyss.TableSpec{
			Name: name, Cols: cols,
			Capacity: rows + headroom, Loaded: rows,
		})
		if err != nil {
			return nil, err
		}
		idx, err := db.CreateIndex(name+"_PK", tab, rows+headroom)
		if err != nil {
			return nil, err
		}
		ord, err := db.CreateOrderedIndex(name+"_ORD", tab)
		if err != nil {
			return nil, err
		}
		sc := tab.Schema
		for s := 0; s < rows; s++ {
			row := tab.LoadRow(s)
			sc.PutU64(row, 0, uint64(s))
			sc.PutU64(row, 1, uint64(s)*7)
			idx.LoadInsert(uint64(s), s)
			ord.LoadInsert(uint64(s), s)
		}
		hotN := 1 + rng.Intn(rows)
		w.rows += rows
		w.tables = append(w.tables, chaosTable{
			tab: tab, idx: idx, ord: ord, rows: rows,
			hotN:   hotN,
			hotPct: 0.5 + rng.Float64()*0.45,
		})
	}

	// The mix: the two core procedures are always present; the optional
	// ones (inserts, mixed footprints, user aborts) appear per seed.
	type procDraw struct {
		name string
		mode int
	}
	draws := []procDraw{{ProcReadOnly, modeReadOnly}, {ProcRMW, modeRMW}}
	for _, opt := range []procDraw{{ProcMixed, modeMixed}, {ProcInsert, modeInsert}, {ProcAbortProne, modeAbortProne}, {ProcRangeScan, modeRangeScan}} {
		if rng.Float64() < 0.7 {
			draws = append(draws, opt)
		}
	}
	specs := make([]abyss.TxnSpec, len(draws))
	for i, d := range draws {
		d := d
		specs[i] = abyss.TxnSpec{
			Name:   d.name,
			Weight: 0.5 + rng.Float64()*2,
			New: func(worker int) abyss.Txn {
				return &chaosTxn{wl: w, mode: d.mode, worker: worker}
			},
		}
	}
	var err error
	if w.Mix, err = db.NewMix(specs...); err != nil {
		return nil, err
	}
	return w, nil
}

// Transaction modes.
const (
	modeReadOnly = iota
	modeRMW
	modeMixed
	modeInsert
	modeAbortProne
	modeRangeScan
)

// op is one drawn row access.
type op struct {
	table int
	slot  int
	write bool
}

// chaosTxn is one per-worker procedure instance; Generate refreshes its
// inputs from the worker RNG before each execution.
type chaosTxn struct {
	wl     *Workload
	mode   int
	worker int

	ops      []op
	parts    []int
	abort    bool   // AbortProne: roll back this execution via ErrUserAbort
	insert   bool   // Insert: this execution stages a new row
	insTable int    // Insert: target table
	insKey   uint64 // Insert: fresh unique key
	inserted int    // Insert: draws so far, gated by insertBudget

	scanTable  int    // RangeScan: target table
	scanLo     uint64 // RangeScan: inclusive key range
	scanHi     uint64
	scanMutate bool // RangeScan: rewrite one scanned row
}

// drawSlot picks a slot in table ti with the table's hot-set skew.
func (t *chaosTxn) drawSlot(p abyss.Proc, ti int) int {
	ct := &t.wl.tables[ti]
	rng := p.Rand()
	if rng.Float64() < ct.hotPct || ct.hotN >= ct.rows {
		return rng.Intn(ct.hotN)
	}
	return ct.hotN + rng.Intn(ct.rows-ct.hotN)
}

// Generate implements abyss.Generator: draw this execution's accesses.
func (t *chaosTxn) Generate(p abyss.Proc) {
	rng := p.Rand()
	t.ops = t.ops[:0]
	t.abort = false
	t.insert = false

	if t.mode == modeRangeScan {
		// One ordered-index range scan, sometimes rewriting a scanned
		// row. Its key→slot mapping is unknown until execution (scans
		// can see other workers' inserts), so H-STORE gets the full
		// partition set.
		t.scanTable = rng.Intn(len(t.wl.tables))
		ct := &t.wl.tables[t.scanTable]
		t.scanLo = uint64(rng.Intn(ct.rows))
		t.scanHi = t.scanLo + 1 + uint64(rng.Intn(ct.rows))
		t.scanMutate = rng.Intn(2) == 0
		t.parts = t.parts[:0]
		for pid := 0; pid < t.wl.nparts; pid++ {
			t.parts = append(t.parts, pid)
		}
		return
	}

	// Accesses are distinct, so a seed whose tables hold fewer rows than
	// the draw gets a shorter transaction instead of redrawing forever.
	n := min(1+rng.Intn(t.wl.cfg.Ops), t.wl.rows)
	for len(t.ops) < n {
		o := op{table: rng.Intn(len(t.wl.tables))}
		o.slot = t.drawSlot(p, o.table)
		dup := false
		for _, e := range t.ops {
			if e.table == o.table && e.slot == o.slot {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		switch t.mode {
		case modeReadOnly:
			o.write = false
		case modeRMW, modeAbortProne:
			o.write = true
		default:
			o.write = rng.Intn(2) == 0
		}
		t.ops = append(t.ops, o)
	}
	if t.mode == modeAbortProne {
		t.abort = rng.Intn(2) == 0
	}
	if t.mode == modeInsert && t.inserted < insertBudget-8 {
		t.insert = true
		t.inserted++
		t.insTable = rng.Intn(len(t.wl.tables))
		// Fresh key: disjoint from the loaded keys [0, rows) and from
		// every other worker's inserts.
		t.insKey = 1<<40 | uint64(t.worker)<<20 | uint64(t.inserted)
	}

	// H-STORE needs the partition set up front, in any order.
	// Insert-bearing executions declare every partition — the slot an
	// insert lands in (the worker's segment) is unknown until commit.
	t.parts = t.parts[:0]
	if t.insert {
		for pid := 0; pid < t.wl.nparts; pid++ {
			t.parts = append(t.parts, pid)
		}
		return
	}
	for _, o := range t.ops {
		t.parts = append(t.parts, o.slot%t.wl.nparts)
	}
}

// Partitions implements abyss.Txn.
func (t *chaosTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: only an AbortProne draw
// rolls back, so the sweep runs H-STORE with and without before-images.
func (t *chaosTxn) MayRollBack() bool { return t.abort }

// Run implements abyss.Txn.
func (t *chaosTxn) Run(tx *abyss.TxnCtx) error {
	if t.mode == modeRangeScan {
		ct := &t.wl.tables[t.scanTable]
		sc := ct.tab.Schema
		entries := tx.RangeScan(ct.ord, t.scanLo, t.scanHi)
		for i, e := range entries {
			if t.scanMutate && i == 0 {
				row, err := tx.UpdateRow(ct.tab, int(e.Slot))
				if err != nil {
					return err
				}
				sc.PutU64(row, 1, sc.GetU64(row, 1)*2654435761+e.Key+1)
				continue
			}
			if _, err := tx.Read(ct.tab, int(e.Slot)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, o := range t.ops {
		ct := &t.wl.tables[o.table]
		sc := ct.tab.Schema
		if !o.write {
			if _, err := tx.Read(ct.tab, o.slot); err != nil {
				return err
			}
			continue
		}
		row, err := tx.UpdateRow(ct.tab, o.slot)
		if err != nil {
			return err
		}
		// A value the oracle replay distinguishes from any other write's:
		// a mix of the previous value and the writing slot.
		sc.PutU64(row, 1, sc.GetU64(row, 1)*2654435761+uint64(o.slot)+1)
	}
	if t.insert {
		ct := &t.wl.tables[t.insTable]
		sc := ct.tab.Schema
		row := tx.InsertRowOrdered(ct.idx, t.insKey, ct.ord, t.insKey)
		sc.PutU64(row, 0, t.insKey)
		sc.PutU64(row, 1, t.insKey*31)
	}
	if t.abort {
		return abyss.ErrUserAbort
	}
	return nil
}

var (
	_ abyss.Workload  = (*Workload)(nil)
	_ abyss.TxnTyper  = (*Workload)(nil)
	_ abyss.Txn       = (*chaosTxn)(nil)
	_ abyss.Generator = (*chaosTxn)(nil)
)

func init() {
	abyss.MustRegisterWorkload(abyss.WorkloadInfo{
		Name:      "chaos",
		Desc:      "Chaos: seeded random schemas, skews and mixes for the serializability checker (extension)",
		Extension: true,
		Defaults: func() abyss.WorkloadParams {
			return abyss.WorkloadParams{Rows: 48, ReqPerTxn: 4}
		},
		Build: func(db *abyss.DB, p abyss.WorkloadParams) (abyss.Workload, error) {
			// The DB's determinism seed doubles as the shape seed, so
			// `abyss-sim -seed N` pins the whole workload.
			cfg := DefaultConfig(db.Options().Seed)
			if p.Rows > 0 {
				cfg.MaxRows = p.Rows
			}
			if p.ReqPerTxn > 0 {
				cfg.Ops = p.ReqPerTxn
			}
			return Build(db, cfg)
		},
	})
}

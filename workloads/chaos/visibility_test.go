package chaos_test

import (
	"sync/atomic"
	"testing"

	"abyss1000/abyss"
)

// counterWorkload is the insert-visibility net's workload: one counter row
// and a log table keyed by counter values. A writer bumps the counter and
// inserts the log row keyed by the new value; a reader reads the counter
// and looks up the log row of the value it read. A committed insert is
// published at its transaction's commit point, so every value a reader
// can see has its row in the index, and misses counts the reads that
// found none. Before the keyed row the writer inserts visFill others,
// published ahead of it, so that on the simulator an engine that
// publishes after the commit point leaves a gap readers land in.
type counterWorkload struct {
	counter *abyss.Table
	log     *abyss.Table
	logIdx  *abyss.Index
	mix     *abyss.Mix
	misses  atomic.Int64
	reads   atomic.Int64
}

// visBudget bounds each worker's writer attempts (its log table segment
// holds visFill+1 rows for each); a writer past it stops writing, so the
// counter never outruns the log.
const (
	visBudget = 1024
	visFill   = 8
)

// logKey is the log table key of counter value v's row i; row 0 is the
// one readers look up.
func logKey(v uint64, i int) uint64 { return v<<8 | uint64(i) }

func buildCounterWorkload(t *testing.T, db *abyss.DB) *counterWorkload {
	t.Helper()
	w := &counterWorkload{}
	var err error
	if w.counter, err = db.CreateTable(abyss.TableSpec{
		Name: "COUNTER", Cols: []abyss.Col{{Name: "VAL", Width: 8}}, Capacity: 1, Loaded: 1,
	}); err != nil {
		t.Fatal(err)
	}
	capacity := db.Cores() * visBudget * (visFill + 1)
	if w.log, err = db.CreateTable(abyss.TableSpec{
		Name: "LOG", Cols: []abyss.Col{{Name: "VAL", Width: 8}, {Name: "WORKER", Width: 8}}, Capacity: capacity,
	}); err != nil {
		t.Fatal(err)
	}
	if w.logIdx, err = db.CreateIndex("LOG_PK", w.log, capacity); err != nil {
		t.Fatal(err)
	}
	parts := make([]int, db.Cores())
	for i := range parts {
		parts[i] = i
	}
	w.mix, err = db.NewMix(
		abyss.TxnSpec{Name: "Bump", Weight: 1, New: func(worker int) abyss.Txn {
			return &bumpTxn{wl: w, worker: uint64(worker), parts: parts}
		}},
		abyss.TxnSpec{Name: "Check", Weight: 1, New: func(int) abyss.Txn {
			return &checkTxn{wl: w, parts: parts}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *counterWorkload) Next(p abyss.Proc) abyss.Txn { return w.mix.Next(p) }

// bumpTxn increments the counter and inserts the log rows of the new
// value, the one readers look up last. Its attempts count against the
// worker's budget, committed or not.
type bumpTxn struct {
	wl       *counterWorkload
	worker   uint64
	attempts int
	parts    []int
}

func (b *bumpTxn) Run(tx *abyss.TxnCtx) error {
	if b.attempts >= visBudget {
		return nil
	}
	b.attempts++
	sc := b.wl.counter.Schema
	row, err := tx.UpdateRow(b.wl.counter, 0)
	if err != nil {
		return err
	}
	v := sc.GetU64(row, 0) + 1
	sc.PutU64(row, 0, v)
	lsc := b.wl.log.Schema
	for i := visFill; i >= 0; i-- {
		ins := tx.InsertRow(b.wl.logIdx, logKey(v, i))
		lsc.PutU64(ins, 0, v)
		lsc.PutU64(ins, 1, b.worker)
	}
	return nil
}

func (b *bumpTxn) Partitions() []int { return b.parts }

// checkTxn reads the counter and requires the log row of the value read.
type checkTxn struct {
	wl    *counterWorkload
	parts []int
}

func (c *checkTxn) Run(tx *abyss.TxnCtx) error {
	row, err := tx.Read(c.wl.counter, 0)
	if err != nil {
		return err
	}
	v := c.wl.counter.Schema.GetU64(row, 0)
	if v == 0 {
		return nil
	}
	c.wl.reads.Add(1)
	if _, ok := tx.Lookup(c.wl.logIdx, logKey(v, 0)); !ok {
		c.wl.misses.Add(1)
	}
	return nil
}

func (c *checkTxn) Partitions() []int { return c.parts }

// TestInsertPublishedAtCommitPoint is the insert-visibility net: under
// every scheme on both runtimes, a reader that sees a counter value also
// finds the row the same transaction inserted under that value. An engine
// that publishes a transaction's inserts after its scheme has released its
// locks (or installed its writes) lets a reader in between see the bump
// and miss the row.
func TestInsertPublishedAtCommitPoint(t *testing.T) {
	for _, runtime := range abyss.Runtimes() {
		for _, scheme := range abyss.PaperSchemes() {
			t.Run(runtime+"/"+scheme, func(t *testing.T) {
				db, err := abyss.Open(abyss.Options{Runtime: runtime, Cores: 4, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				wl := buildCounterWorkload(t, db)
				s, err := abyss.NewScheme(scheme)
				if err != nil {
					t.Fatal(err)
				}
				cfg := abyss.RunConfig{MeasureCycles: 1_000_000, AbortBackoff: 200}
				if runtime == abyss.RuntimeNative {
					cfg.MeasureCycles = 20_000_000
				}
				res, err := db.Run(s, wl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				reads, misses := wl.reads.Load(), wl.misses.Load()
				t.Logf("%d commits; %d counter reads, %d missed their row", res.Commits, reads, misses)
				if misses > 0 {
					t.Fatalf("%d of %d readers saw a counter value whose inserted row was not in the index", misses, reads)
				}
				if runtime == abyss.RuntimeSim && reads == 0 {
					t.Fatal("no reader saw a bumped counter")
				}
			})
		}
	}
}

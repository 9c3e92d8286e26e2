package abyss1000_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"abyss1000/abyss"
	"abyss1000/internal/storage"
)

// rowKey names one row of one table.
type rowKey struct {
	t    *storage.Table
	slot int
}

// columnNet wraps a scheme that reads and writes rows in place (NO_WAIT,
// H-STORE) and holds each access to the columns it names. WriteRow
// records the mask of every write, per transaction and row (a second write
// of a row adds its columns), and clones the row the scheme hands back at
// the transaction's first write of it, before the body stores anything; at
// every Commit, before the scheme's own, each write-set entry must still
// equal that clone byte for byte outside those columns. The clone is the
// net's own, so the check does not depend on the scheme keeping an undo
// image (H-STORE keeps none for a transaction that cannot roll back). A
// workload that bills a write for fewer columns than it stores into fails
// there. With garble set, Read
// hands back a copy of the row whose unnamed columns are overwritten with
// garbage, so a body that uses a column its Read did not name computes
// something else than it does on the live row.
type columnNet struct {
	abyss.Scheme
	garble bool

	mu      sync.Mutex // native workers run concurrently
	written map[*abyss.TxnCtx]map[rowKey]*netWrite
	entries int      // write-set entries checked
	named   int      // of which named fewer than all columns
	reads   int      // reads that named fewer than all columns
	errs    []string // the first few violations
}

// netWrite is one row a transaction wrote: the columns its writes named
// and the row as it was before the first of them.
type netWrite struct {
	cols   uint64
	before []byte
}

func newColumnNet(inner abyss.Scheme, garble bool) *columnNet {
	return &columnNet{Scheme: inner, garble: garble, written: map[*abyss.TxnCtx]map[rowKey]*netWrite{}}
}

func (s *columnNet) Begin(tx *abyss.TxnCtx) {
	s.mu.Lock()
	clear(s.written[tx])
	s.mu.Unlock()
	s.Scheme.Begin(tx)
}

func (s *columnNet) Read(tx *abyss.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	row, err := s.Scheme.Read(tx, t, slot, cols)
	if err != nil || cols == storage.AllCols {
		return row, err
	}
	s.mu.Lock()
	s.reads++
	s.mu.Unlock()
	if !s.garble {
		return row, nil
	}
	img := bytes.Clone(row)
	sc := t.Schema
	for c, col := range sc.Cols {
		if cols&(1<<c) == 0 {
			off := sc.Offset(c)
			for i := off; i < off+col.Width; i++ {
				img[i] = 0xa5
			}
		}
	}
	return img, nil
}

func (s *columnNet) WriteRow(tx *abyss.TxnCtx, t *storage.Table, slot int, cols uint64) ([]byte, error) {
	row, err := s.Scheme.WriteRow(tx, t, slot, cols)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	m := s.written[tx]
	if m == nil {
		m = map[rowKey]*netWrite{}
		s.written[tx] = m
	}
	w := m[rowKey{t, slot}]
	if w == nil {
		w = &netWrite{before: bytes.Clone(row)}
		m[rowKey{t, slot}] = w
	}
	w.cols |= cols
	s.mu.Unlock()
	return row, nil
}

func (s *columnNet) Commit(tx *abyss.TxnCtx) error {
	s.mu.Lock()
	m := s.written[tx]
	s.mu.Unlock()
	ws := tx.Writes()
	for i := range ws {
		w := &ws[i]
		nw := m[rowKey{w.T, w.Slot}]
		var bad []string
		var cols uint64
		if nw == nil {
			bad = append(bad, "no WriteRow")
		} else {
			cols = nw.cols
			sc := w.T.Schema
			for c, col := range sc.Cols {
				if c < 64 && cols&(1<<c) != 0 {
					continue
				}
				off := sc.Offset(c)
				if !bytes.Equal(w.Buf[off:off+col.Width], nw.before[off:off+col.Width]) {
					bad = append(bad, col.Name)
				}
			}
		}
		s.mu.Lock()
		s.entries++
		if cols != storage.AllCols {
			s.named++
		}
		if len(bad) > 0 && len(s.errs) < 5 {
			s.errs = append(s.errs, fmt.Sprintf("%s slot %d: named columns %#b, stored into %v", w.T.Schema.Name, w.Slot, cols, bad))
		}
		s.mu.Unlock()
	}
	return s.Scheme.Commit(tx)
}

// columnNetWorkloads are the workloads that name the columns they touch,
// each small enough to run in well under a second.
var columnNetWorkloads = []struct {
	name, workload string
	params         func(p *abyss.WorkloadParams, scheme string)
}{
	{"ycsb", "ycsb", func(p *abyss.WorkloadParams, scheme string) {
		p.Rows = 1024
		if scheme == "HSTORE" {
			p.Partitioned, p.MPFraction, p.MPParts = true, 0.2, 2
		}
	}},
	{"tpcc-paper", "tpcc", func(p *abyss.WorkloadParams, _ string) {
		p.Warehouses, p.InsertsPerWorker = 2, 1024
	}},
	{"tpcc-full", "tpcc", func(p *abyss.WorkloadParams, _ string) {
		p.Mix, p.Warehouses, p.InsertsPerWorker = "full", 2, 1024
	}},
	{"smallbank", "smallbank", func(p *abyss.WorkloadParams, _ string) { p.Accounts = 1024 }},
	{"tatp", "tatp", func(p *abyss.WorkloadParams, _ string) { p.Subscribers = 1024 }},
}

const columnNetCores = 4

// columnNetRun runs one workload under scheme on runtime, wrapped in a
// columnNet unless net is nil, and returns the DB and the Result.
func columnNetRun(t *testing.T, runtime, scheme string, w int, net func(abyss.Scheme) *columnNet) (*abyss.DB, abyss.Result, *columnNet) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: runtime, Cores: columnNetCores, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams(columnNetWorkloads[w].workload)
	if err != nil {
		t.Fatal(err)
	}
	columnNetWorkloads[w].params(&p, scheme)
	wl, err := db.BuildWorkload(columnNetWorkloads[w].workload, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	var cn *columnNet
	if net != nil {
		cn = net(s)
		s = cn
	}
	rc := abyss.RunConfig{MeasureCycles: 2_000_000, AbortBackoff: 500}
	if runtime == abyss.RuntimeNative {
		// Bounded by nativeDraws (walprop_test.go); the window (ns) is
		// only a backstop.
		rc.MeasureCycles = 40_000_000
		wl = &drawLimited{Workload: wl, db: db, drawn: make([]int, columnNetCores)}
	}
	res, err := db.Run(s, wl, rc)
	if err != nil {
		t.Fatal(err)
	}
	return db, res, cn
}

// TestStoresStayInNamedColumns runs every workload that names the columns
// it touches under NO_WAIT and H-STORE on both runtimes, through
// columnNet. Each run must commit writes that named fewer than all
// columns, and none may store outside them.
func TestStoresStayInNamedColumns(t *testing.T) {
	for _, runtime := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
		t.Run(runtime, func(t *testing.T) {
			for _, scheme := range []string{"NO_WAIT", "HSTORE"} {
				for w, wl := range columnNetWorkloads {
					t.Run(scheme+"/"+wl.name, func(t *testing.T) {
						_, res, net := columnNetRun(t, runtime, scheme, w, func(s abyss.Scheme) *columnNet { return newColumnNet(s, false) })
						t.Logf("%d commits; %d write-set entries checked, %d of them named fewer than all columns",
							res.Commits, net.entries, net.named)
						for _, e := range net.errs {
							t.Error(e)
						}
						if net.named == 0 {
							t.Errorf("no committed write named fewer than all columns")
						}
					})
				}
			}
		})
	}
}

// TestReadsStayInNamedColumns runs every workload that names the columns
// it touches under NO_WAIT and H-STORE on the simulator twice with one
// seed: on the live rows, and through a columnNet whose reads garble the
// columns they did not name. A body that uses a column its Read did not
// name (and so is billed for fewer bytes than it reads) computes with the
// garbage, and the final state or the Result differs. Each run must make
// reads that named fewer than all columns, and its stores must stay in the
// named columns too.
func TestReadsStayInNamedColumns(t *testing.T) {
	for _, scheme := range []string{"NO_WAIT", "HSTORE"} {
		for w, wl := range columnNetWorkloads {
			t.Run(scheme+"/"+wl.name, func(t *testing.T) {
				plainDB, plain, _ := columnNetRun(t, abyss.RuntimeSim, scheme, w, nil)
				netDB, garbled, net := columnNetRun(t, abyss.RuntimeSim, scheme, w, func(s abyss.Scheme) *columnNet { return newColumnNet(s, true) })
				t.Logf("%d commits; %d reads named fewer than all columns", garbled.Commits, net.reads)
				for _, e := range net.errs {
					t.Error(e)
				}
				if net.reads == 0 {
					t.Errorf("no read named fewer than all columns")
				}
				if !reflect.DeepEqual(plain, garbled) {
					t.Errorf("garbled reads changed the result: %d commits, %d aborts on the live rows; %d, %d garbled",
						plain.Commits, plain.Aborts, garbled.Commits, garbled.Aborts)
				}
				if a, b := sha256.Sum256([]byte(plainDB.StateDump())), sha256.Sum256([]byte(netDB.StateDump())); a != b {
					t.Errorf("garbled reads changed the final state: %x on the live rows, %x garbled", a[:8], b[:8])
				}
			})
		}
	}
}

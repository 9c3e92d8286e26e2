package core

import (
	"fmt"
	"reflect"

	"abyss1000/internal/rt"
)

// Generator is an optional interface for Txn. When a transaction returned
// by a Mix implements it, Generate is called with the drawing worker's
// Proc before each execution so the transaction can draw fresh inputs
// from the worker's deterministic RNG (p.Rand()). Transactions without it
// must be self-generating inside Run.
type Generator interface {
	Generate(p rt.Proc)
}

// TxnSpec registers one stored procedure in a Mix.
type TxnSpec struct {
	// Name identifies the procedure in errors and tooling.
	Name string

	// Weight is the procedure's relative draw frequency (any positive
	// scale; weights are normalized over the Mix).
	Weight float64

	// New constructs the per-worker transaction instance. It is called
	// once per worker at Mix build time; the instance is reused for every
	// draw on that worker (the engine's zero-allocation convention), with
	// Generate refreshing its inputs per execution.
	New func(worker int) Txn
}

// Mix is a Workload drawing weighted stored procedures: the one weighted
// draw over transaction types, behind TPC-C, SmallBank, TATP, chaos and
// any custom workload built against the public API (see
// abyss1000/workloads/smallbank for a complete client). Draws use the
// worker's own RNG, so a Mix is deterministic per (seed, worker).
type Mix struct {
	names []string
	cum   []float64    // cumulative normalized weights
	txns  [][]instance // [worker][spec]
	kinds map[Txn]int  // instance -> spec index, for TxnTypeOf
}

// instance is one worker's transaction for one spec, its Generator
// resolved once at build time so that a draw makes no type assertion.
type instance struct {
	txn Txn
	gen Generator // nil when txn draws its own inputs in Run
}

// NewMix validates specs and instantiates every procedure once for each
// of workers workers.
func NewMix(workers int, specs ...TxnSpec) (*Mix, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("a Mix needs at least one TxnSpec")
	}
	total := 0.0
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("TxnSpec %d needs a name", i)
		}
		if s.New == nil {
			return nil, fmt.Errorf("TxnSpec %q needs a constructor", s.Name)
		}
		if s.Weight < 0 {
			return nil, fmt.Errorf("TxnSpec %q weight must be non-negative, got %g", s.Name, s.Weight)
		}
		total += s.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("a Mix needs at least one positive weight")
	}
	m := &Mix{
		names: make([]string, len(specs)),
		cum:   make([]float64, len(specs)),
		txns:  make([][]instance, workers),
		kinds: make(map[Txn]int, len(specs)*workers),
	}
	acc := 0.0
	for i, s := range specs {
		m.names[i] = s.Name
		acc += s.Weight / total
		m.cum[i] = acc
	}
	m.cum[len(specs)-1] = 1 // immune to rounding
	for w := range m.txns {
		m.txns[w] = make([]instance, len(specs))
		for i, s := range specs {
			t := s.New(w)
			if t == nil {
				return nil, fmt.Errorf("TxnSpec %q constructor returned nil for worker %d", s.Name, w)
			}
			gen, _ := t.(Generator)
			m.txns[w][i] = instance{t, gen}
			// Per-type attribution needs to recognise instances at
			// commit time. Pointer transactions (the documented
			// reuse-one-object-per-worker pattern) always work; value
			// types work as long as no two specs produce equal values.
			// Where identity is unknowable — non-comparable types, or
			// the same value registered under two specs — attribution
			// degrades to none rather than rejecting a workload that
			// ran fine before per-type results existed.
			if m.kinds != nil {
				if !reflect.TypeOf(t).Comparable() {
					m.kinds = nil
				} else if prev, dup := m.kinds[t]; dup && prev != i {
					m.kinds = nil
				} else {
					m.kinds[t] = i
				}
			}
		}
	}
	return m, nil
}

// Procedures returns the registered procedure names in spec order.
func (m *Mix) Procedures() []string {
	return append([]string(nil), m.names...)
}

// TxnTypes implements TxnTyper: the spec names, in spec order. The
// returned slice is shared; callers must not mutate it. It returns nil —
// no per-type attribution, so Result.PerTxn stays empty rather than
// misleadingly zero — when transaction instances cannot be told apart
// (non-comparable Txn types, or equal values registered under two
// specs); the reusable-pointer-per-worker pattern always attributes.
func (m *Mix) TxnTypes() []string {
	if m.kinds == nil {
		return nil
	}
	return m.names
}

// TxnTypeOf implements TxnTyper: the spec index of a transaction
// instance this Mix created, or -1 for a foreign transaction.
func (m *Mix) TxnTypeOf(t Txn) int {
	if m.kinds == nil {
		return -1
	}
	if k, ok := m.kinds[t]; ok {
		return k
	}
	return -1
}

// Next implements Workload: draw a procedure by weight with one Float64
// of p's RNG and hand the engine its Instance.
func (m *Mix) Next(p rt.Proc) Txn {
	r := p.Rand().Float64()
	i := 0
	for i < len(m.cum)-1 && r >= m.cum[i] {
		i++
	}
	return m.Instance(p, i)
}

// Instance returns worker p's instance of procedure k (an index into
// Procedures), its inputs refreshed via Generate when implemented.
func (m *Mix) Instance(p rt.Proc, k int) Txn {
	in := m.txns[p.ID()][k]
	if in.gen != nil {
		in.gen.Generate(p)
	}
	return in.txn
}

var (
	_ Workload = (*Mix)(nil)
	_ TxnTyper = (*Mix)(nil)
)

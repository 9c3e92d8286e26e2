package abyss

import (
	"fmt"

	"abyss1000/internal/core"
)

type (
	// Generator is an optional interface for Txn: a transaction a Mix
	// draws that implements it gets Generate(p) before each execution,
	// to draw fresh inputs from the worker's deterministic RNG.
	Generator = core.Generator

	// TxnSpec registers one stored procedure in a Mix: its Name, its
	// relative Weight and the per-worker constructor New.
	TxnSpec = core.TxnSpec

	// Mix is a Workload drawing weighted stored procedures: the
	// declarative way to define a custom workload against the public
	// API (see abyss1000/workloads/smallbank for a complete client).
	// Draws use the worker's own RNG, so a Mix is deterministic per
	// (seed, worker) like the built-in workloads.
	Mix = core.Mix
)

// NewMix validates specs and instantiates every procedure once per
// worker.
func (db *DB) NewMix(specs ...TxnSpec) (*Mix, error) {
	m, err := core.NewMix(db.Cores(), specs...)
	if err != nil {
		return nil, fmt.Errorf("abyss: %w", err)
	}
	return m, nil
}

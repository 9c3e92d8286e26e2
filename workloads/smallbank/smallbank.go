// Package smallbank implements the SmallBank banking benchmark (Alomari
// et al., "The Cost of Serializability on Platforms That Use Snapshot
// Isolation", ICDE 2008; extended with SendPayment in H-Store) as a
// workload for the abyss engine — and as the proof that the public API is
// sufficient: the package imports only abyss1000/abyss, no engine
// internals.
//
// The database is three tables keyed by customer id — ACCOUNTS (the
// customer roster), SAVINGS and CHECKING (one balance row each) — and six
// short transaction types: Balance, DepositChecking, TransactSavings,
// Amalgamate, WriteCheck and SendPayment. Transactions touch one or two
// customers, so the contention profile is very different from YCSB's
// 16-access scatter reads and TPC-C's warehouse funnels: conflicts are
// pairwise, footprints are tiny (2-4 rows), and a configurable hotspot
// (HotPct of draws land on the first HotAccounts customers) concentrates
// them — the regime where abort-heavy schemes thrash on a handful of hot
// balance rows while the rest of the table stays idle.
//
// Registering the package (import _ "abyss1000/workloads/smallbank") adds
// a "smallbank" entry to the abyss workload registry; Build offers the
// full Config, including per-procedure mix weights, for direct embedding.
package smallbank

import (
	"fmt"
	"sync"

	"abyss1000/abyss"
)

// Table and column layout. Balances are int64 cents.
const (
	// colCustID is the customer id column in every table.
	colCustID = 0
	// colName is ACCOUNTS' fixed-width customer name.
	colName = 1
	// colBalance is SAVINGS'/CHECKING's balance column.
	colBalance = 1
)

// Procedure names, in mix order (the order Config.Weights indexes).
const (
	ProcBalance         = "Balance"
	ProcDepositChecking = "DepositChecking"
	ProcTransactSavings = "TransactSavings"
	ProcAmalgamate      = "Amalgamate"
	ProcWriteCheck      = "WriteCheck"
	ProcSendPayment     = "SendPayment"
)

// Procedures lists the six transaction types in mix order.
var Procedures = []string{
	ProcBalance, ProcDepositChecking, ProcTransactSavings,
	ProcAmalgamate, ProcWriteCheck, ProcSendPayment,
}

// Config parameterizes the workload. Use DefaultConfig as the base.
type Config struct {
	// Accounts is the customer count (each has one savings and one
	// checking row).
	Accounts int

	// HotAccounts is the size of the hotspot: customer ids [0,
	// HotAccounts) form the contended set.
	HotAccounts int

	// HotPct is the probability a customer draw lands in the hotspot;
	// the rest are uniform over the remaining accounts. 0 disables the
	// hotspot (uniform access).
	HotPct float64

	// Weights are the relative frequencies of the six procedures in
	// Procedures order. Zero disables a procedure; at least one must be
	// positive.
	Weights [6]float64
}

// DefaultConfig returns the classic mix at laptop scale with a strong
// hotspot: 25% balance checks, the rest split over the five writers, and
// 90% of draws hitting 64 hot customers.
func DefaultConfig() Config {
	return Config{
		Accounts:    65536,
		HotAccounts: 64,
		HotPct:      0.9,
		Weights:     [6]float64{25, 15, 15, 15, 15, 15},
	}
}

// Initial balances (cents): savings/checking rows start with a
// deterministic per-customer amount so invariants are checkable.
const (
	initSavings  = 500_00
	initChecking = 100_00
)

// InitialTotal returns the sum of all balances right after Build — the
// quantity conserved by Amalgamate and SendPayment.
func InitialTotal(accounts int) int64 {
	return int64(accounts) * (initSavings + initChecking)
}

// Workload is a populated SmallBank database plus the procedure mix: the
// embedded Mix is its Next, its TxnTypes (the active procedure names in
// mix order, so Result.PerTxn attributes commits, aborts and latency to
// each banking transaction) and its named procedures.
type Workload struct {
	*abyss.Mix
	cfg Config

	accounts, savings, checking *abyss.Table
	idxSavings, idxChecking     *abyss.Index

	nparts int
}

// Build validates cfg, creates and populates the three tables on db, and
// returns the ready Workload.
func Build(db *abyss.DB, cfg Config) (*Workload, error) {
	if cfg.Accounts < 2 {
		return nil, fmt.Errorf("smallbank: Accounts must be >= 2 (transactions move money between two customers), got %d", cfg.Accounts)
	}
	if cfg.HotPct < 0 || cfg.HotPct > 1 {
		return nil, fmt.Errorf("smallbank: HotPct must be in [0, 1], got %g", cfg.HotPct)
	}
	if cfg.HotPct > 0 && (cfg.HotAccounts < 1 || cfg.HotAccounts > cfg.Accounts) {
		return nil, fmt.Errorf("smallbank: HotAccounts must be in [1, Accounts=%d] when HotPct > 0, got %d", cfg.Accounts, cfg.HotAccounts)
	}
	if cfg.HotPct == 1 && cfg.HotAccounts < 2 {
		// With every draw pinned to a single customer, the two-customer
		// transactions could never find a distinct counterparty.
		return nil, fmt.Errorf("smallbank: HotPct = 1 needs HotAccounts >= 2 (transactions move money between two distinct customers), got %d", cfg.HotAccounts)
	}
	w := &Workload{cfg: cfg, nparts: db.Cores()}

	n := cfg.Accounts
	var err error
	w.accounts, err = db.CreateTable(abyss.TableSpec{
		Name:     "SB_ACCOUNTS",
		Cols:     []abyss.Col{{Name: "CUSTID", Width: 8}, {Name: "NAME", Width: 16}},
		Capacity: n, Loaded: n,
	})
	if err != nil {
		return nil, err
	}
	w.savings, err = db.CreateTable(abyss.TableSpec{
		Name:     "SB_SAVINGS",
		Cols:     []abyss.Col{{Name: "CUSTID", Width: 8}, {Name: "BAL", Width: 8}},
		Capacity: n, Loaded: n,
	})
	if err != nil {
		return nil, err
	}
	w.checking, err = db.CreateTable(abyss.TableSpec{
		Name:     "SB_CHECKING",
		Cols:     []abyss.Col{{Name: "CUSTID", Width: 8}, {Name: "BAL", Width: 8}},
		Capacity: n, Loaded: n,
	})
	if err != nil {
		return nil, err
	}
	// ACCOUNTS is scanned only at setup; SAVINGS and CHECKING are probed
	// by every transaction.
	w.idxSavings, err = db.CreateIndex("SB_SAVINGS_PK", w.savings, n)
	if err != nil {
		return nil, err
	}
	w.idxChecking, err = db.CreateIndex("SB_CHECKING_PK", w.checking, n)
	if err != nil {
		return nil, err
	}

	// Customer i is slot i of every table. Each index is filled on a
	// goroutine of its own beside the row pass: an index pass reads no row,
	// and one LoadAll takes longer than the row pass.
	var wg sync.WaitGroup
	for _, idx := range []*abyss.Index{w.idxSavings, w.idxChecking} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx.LoadAll(n, func(i int) uint64 { return uint64(i) })
		}()
	}
	// A name is "cust" and the customer id in twelve decimal digits, kept
	// as an odometer that counts up one row at a time.
	name := []byte("cust000000000000")
	asc := w.accounts.Schema
	for i := 0; i < n; i++ {
		cust := uint64(i)

		arow := w.accounts.LoadRow(i)
		asc.PutU64(arow, colCustID, cust)
		copy(asc.Bytes(arow, colName), name)
		for j := len(name) - 1; j >= 4; j-- {
			if name[j] != '9' {
				name[j]++
				break
			}
			name[j] = '0'
		}

		srow := w.savings.LoadRow(i)
		w.savings.Schema.PutU64(srow, colCustID, cust)
		w.savings.Schema.PutI64(srow, colBalance, initSavings)

		crow := w.checking.LoadRow(i)
		w.checking.Schema.PutU64(crow, colCustID, cust)
		w.checking.Schema.PutI64(crow, colBalance, initChecking)
	}
	wg.Wait()

	specs := []abyss.TxnSpec{
		{Name: ProcBalance, Weight: cfg.Weights[0], New: func(int) abyss.Txn { return &balanceTxn{wl: w} }},
		{Name: ProcDepositChecking, Weight: cfg.Weights[1], New: func(int) abyss.Txn { return &depositCheckingTxn{wl: w} }},
		{Name: ProcTransactSavings, Weight: cfg.Weights[2], New: func(int) abyss.Txn { return &transactSavingsTxn{wl: w} }},
		{Name: ProcAmalgamate, Weight: cfg.Weights[3], New: func(int) abyss.Txn { return &amalgamateTxn{wl: w} }},
		{Name: ProcWriteCheck, Weight: cfg.Weights[4], New: func(int) abyss.Txn { return &writeCheckTxn{wl: w} }},
		{Name: ProcSendPayment, Weight: cfg.Weights[5], New: func(int) abyss.Txn { return &sendPaymentTxn{wl: w} }},
	}
	// Drop zero-weight procedures, so TxnTypes (and Result.PerTxn) lists
	// only the procedures this mix draws.
	active := specs[:0]
	for _, s := range specs {
		if s.Weight > 0 {
			active = append(active, s)
		}
	}
	if w.Mix, err = db.NewMix(active...); err != nil {
		return nil, err
	}
	return w, nil
}

// Savings and Checking return the balance tables (for checkers).
func (w *Workload) Savings() *abyss.Table { return w.savings }

// Checking returns the checking-balance table.
func (w *Workload) Checking() *abyss.Table { return w.checking }

// customer draws one customer id with the configured hotspot skew.
func (w *Workload) customer(p abyss.Proc) uint64 {
	rng := p.Rand()
	cfg := &w.cfg
	if cfg.HotPct > 0 && rng.Float64() < cfg.HotPct {
		return uint64(rng.Intn(cfg.HotAccounts))
	}
	if cfg.HotAccounts >= cfg.Accounts {
		return uint64(rng.Intn(cfg.Accounts))
	}
	return uint64(cfg.HotAccounts + rng.Intn(cfg.Accounts-cfg.HotAccounts))
}

// customerPair draws two distinct customers.
func (w *Workload) customerPair(p abyss.Proc) (uint64, uint64) {
	a := w.customer(p)
	for {
		b := w.customer(p)
		if b != a {
			return a, b
		}
	}
}

// partition maps a customer to an H-STORE partition: SAVINGS and CHECKING
// rows of one customer always co-reside.
func (w *Workload) partition(cust uint64) int {
	return int(cust % uint64(w.nparts))
}

func init() {
	abyss.MustRegisterWorkload(abyss.WorkloadInfo{
		Name:      "smallbank",
		Desc:      "SmallBank: six short banking transactions over hot checking/savings rows (extension)",
		Extension: true,
		Defaults: func() abyss.WorkloadParams {
			c := DefaultConfig()
			return abyss.WorkloadParams{
				Accounts:    c.Accounts,
				HotAccounts: c.HotAccounts,
				HotPct:      c.HotPct,
			}
		},
		Build: func(db *abyss.DB, p abyss.WorkloadParams) (abyss.Workload, error) {
			cfg := DefaultConfig()
			cfg.Accounts = p.Accounts
			cfg.HotAccounts = p.HotAccounts
			cfg.HotPct = p.HotPct
			return Build(db, cfg)
		},
	})
}

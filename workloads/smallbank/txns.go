package smallbank

import "abyss1000/abyss"

// The six SmallBank stored procedures. Each is a reusable per-worker
// object (the engine's zero-allocation convention): Generate draws fresh
// inputs from the worker's deterministic RNG, Run executes against the
// transaction context, and Partitions reports the touched H-STORE
// partitions (customer id mod partition count; ignored by the tuple-level
// schemes).
//
// Balance lookups panic on a missing customer: ids are drawn from
// [0, Accounts) and the tables are fully preloaded, so a miss is a bug,
// not a runtime condition — the same convention as the built-in
// workloads.

// lookupSlot probes idx for cust.
func lookupSlot(tx *abyss.TxnCtx, idx *abyss.Index, cust uint64) int {
	slot, ok := tx.Lookup(idx, cust)
	if !ok {
		panic("smallbank: customer vanished from primary index")
	}
	return slot
}

// readBal returns the balance of cust in (idx, t).
func readBal(tx *abyss.TxnCtx, t *abyss.Table, idx *abyss.Index, cust uint64) (int64, error) {
	row, err := tx.Read(t, lookupSlot(tx, idx, cust), colBalance)
	if err != nil {
		return 0, err
	}
	return t.Schema.GetI64(row, colBalance), nil
}

// addBal adds delta to cust's balance in (idx, t) and returns the new
// balance.
func addBal(tx *abyss.TxnCtx, t *abyss.Table, idx *abyss.Index, cust uint64, delta int64) (int64, error) {
	row, err := tx.UpdateRow(t, lookupSlot(tx, idx, cust), colBalance)
	if err != nil {
		return 0, err
	}
	bal := t.Schema.GetI64(row, colBalance) + delta
	t.Schema.PutI64(row, colBalance, bal)
	return bal, nil
}

// setBal overwrites cust's balance in (idx, t) and returns the previous
// balance.
func setBal(tx *abyss.TxnCtx, t *abyss.Table, idx *abyss.Index, cust uint64, bal int64) (int64, error) {
	row, err := tx.UpdateRow(t, lookupSlot(tx, idx, cust), colBalance)
	if err != nil {
		return 0, err
	}
	old := t.Schema.GetI64(row, colBalance)
	t.Schema.PutI64(row, colBalance, bal)
	return old, nil
}

// balanceTxn reads one customer's savings and checking balances
// (read-only).
type balanceTxn struct {
	wl    *Workload
	cust  uint64
	parts []int

	// Total is the last computed balance (read by tests).
	Total int64
}

func (t *balanceTxn) Generate(p abyss.Proc) {
	t.cust = t.wl.customer(p)
	t.parts = append(t.parts[:0], t.wl.partition(t.cust))
}

func (t *balanceTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	sav, err := readBal(tx, w.savings, w.idxSavings, t.cust)
	if err != nil {
		return err
	}
	chk, err := readBal(tx, w.checking, w.idxChecking, t.cust)
	if err != nil {
		return err
	}
	t.Total = sav + chk
	return nil
}

func (t *balanceTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *balanceTxn) MayRollBack() bool { return false }

// depositCheckingTxn credits a customer's checking account.
type depositCheckingTxn struct {
	wl     *Workload
	cust   uint64
	amount int64
	parts  []int
}

func (t *depositCheckingTxn) Generate(p abyss.Proc) {
	t.cust = t.wl.customer(p)
	t.amount = int64(p.Rand().Intn(200_00)) + 1 // $0.01 - $200.00
	t.parts = append(t.parts[:0], t.wl.partition(t.cust))
}

func (t *depositCheckingTxn) Run(tx *abyss.TxnCtx) error {
	_, err := addBal(tx, t.wl.checking, t.wl.idxChecking, t.cust, t.amount)
	return err
}

func (t *depositCheckingTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *depositCheckingTxn) MayRollBack() bool { return false }

// transactSavingsTxn applies a deposit or withdrawal to savings; a
// withdrawal that would overdraw rolls back (ErrUserAbort — completed
// work, no restart).
type transactSavingsTxn struct {
	wl     *Workload
	cust   uint64
	amount int64
	parts  []int
}

func (t *transactSavingsTxn) Generate(p abyss.Proc) {
	t.cust = t.wl.customer(p)
	t.amount = int64(p.Rand().Intn(350_00)) - 150_00 // -$150.00 - +$200.00
	t.parts = append(t.parts[:0], t.wl.partition(t.cust))
}

func (t *transactSavingsTxn) Run(tx *abyss.TxnCtx) error {
	bal, err := addBal(tx, t.wl.savings, t.wl.idxSavings, t.cust, t.amount)
	if err != nil {
		return err
	}
	if bal < 0 {
		return abyss.ErrUserAbort
	}
	return nil
}

func (t *transactSavingsTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: a withdrawal may overdraw.
func (t *transactSavingsTxn) MayRollBack() bool { return true }

// amalgamateTxn moves all funds of one customer into another's checking
// account.
type amalgamateTxn struct {
	wl       *Workload
	from, to uint64
	parts    []int
}

func (t *amalgamateTxn) Generate(p abyss.Proc) {
	t.from, t.to = t.wl.customerPair(p)
	t.parts = append(t.parts[:0], t.wl.partition(t.from), t.wl.partition(t.to))
}

func (t *amalgamateTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	sav, err := setBal(tx, w.savings, w.idxSavings, t.from, 0)
	if err != nil {
		return err
	}
	chk, err := setBal(tx, w.checking, w.idxChecking, t.from, 0)
	if err != nil {
		return err
	}
	_, err = addBal(tx, w.checking, w.idxChecking, t.to, sav+chk)
	return err
}

func (t *amalgamateTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *amalgamateTxn) MayRollBack() bool { return false }

// writeCheckTxn cashes a check against the combined balance, charging a
// $1 overdraft penalty when it exceeds the funds (the SmallBank anomaly
// transaction: its read of savings is what snapshot isolation fails to
// serialize).
type writeCheckTxn struct {
	wl     *Workload
	cust   uint64
	amount int64
	parts  []int
}

func (t *writeCheckTxn) Generate(p abyss.Proc) {
	t.cust = t.wl.customer(p)
	t.amount = int64(p.Rand().Intn(500_00)) + 1 // $0.01 - $500.00
	t.parts = append(t.parts[:0], t.wl.partition(t.cust))
}

func (t *writeCheckTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	sav, err := readBal(tx, w.savings, w.idxSavings, t.cust)
	if err != nil {
		return err
	}
	row, err := tx.UpdateRow(w.checking, lookupSlot(tx, w.idxChecking, t.cust), colBalance)
	if err != nil {
		return err
	}
	chk := w.checking.Schema.GetI64(row, colBalance)
	amount := t.amount
	if amount > sav+chk {
		amount += 1_00 // overdraft penalty
	}
	w.checking.Schema.PutI64(row, colBalance, chk-amount)
	return nil
}

func (t *writeCheckTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: it never rolls back.
func (t *writeCheckTxn) MayRollBack() bool { return false }

// sendPaymentTxn transfers between two checking accounts; insufficient
// funds roll back (ErrUserAbort).
type sendPaymentTxn struct {
	wl       *Workload
	from, to uint64
	amount   int64
	parts    []int
}

func (t *sendPaymentTxn) Generate(p abyss.Proc) {
	t.from, t.to = t.wl.customerPair(p)
	t.amount = int64(p.Rand().Intn(100_00)) + 1 // $0.01 - $100.00
	t.parts = append(t.parts[:0], t.wl.partition(t.from), t.wl.partition(t.to))
}

func (t *sendPaymentTxn) Run(tx *abyss.TxnCtx) error {
	w := t.wl
	bal, err := addBal(tx, w.checking, w.idxChecking, t.from, -t.amount)
	if err != nil {
		return err
	}
	if bal < 0 {
		return abyss.ErrUserAbort
	}
	_, err = addBal(tx, w.checking, w.idxChecking, t.to, t.amount)
	return err
}

func (t *sendPaymentTxn) Partitions() []int { return t.parts }

// MayRollBack implements abyss.RollbackDeclarer: the payer may lack the funds.
func (t *sendPaymentTxn) MayRollBack() bool { return true }

var (
	_ abyss.Workload  = (*Workload)(nil)
	_ abyss.TxnTyper  = (*Workload)(nil)
	_ abyss.Txn       = (*balanceTxn)(nil)
	_ abyss.Txn       = (*depositCheckingTxn)(nil)
	_ abyss.Txn       = (*transactSavingsTxn)(nil)
	_ abyss.Txn       = (*amalgamateTxn)(nil)
	_ abyss.Txn       = (*writeCheckTxn)(nil)
	_ abyss.Txn       = (*sendPaymentTxn)(nil)
	_ abyss.Generator = (*balanceTxn)(nil)
)

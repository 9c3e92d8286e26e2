package core

import (
	"encoding/json"
	"fmt"
	"slices"
)

// AbortCause names the rule of a scheme that aborted a transaction
// attempt. A scheme sets it where it returns ErrAbort (TxnCtx.AbortWith),
// and the worker counts it into Result.AbortCauses and TxnStats.
// Accounting only: setting or counting a cause bills nothing.
type AbortCause uint8

const (
	// CauseOther: ErrAbort arrived with no scheme rule named — returned
	// by a transaction body itself, or by a scheme that does not tag.
	CauseOther AbortCause = iota

	// CauseNoWait: NO_WAIT found the lock held in a conflicting mode.
	CauseNoWait

	// CauseWaitDie: WAIT_DIE found a conflicting holder no younger than
	// the requester, or a lock upgrade with co-holders.
	CauseWaitDie

	// CauseDeadlock: DL_DETECT chose the requester as the victim of a
	// waits-for cycle.
	CauseDeadlock

	// CauseLockTimeout: DL_DETECT's lock wait ran past its timeout (at
	// once, with a zero timeout).
	CauseLockTimeout

	// CauseTOReadTooLate: TIMESTAMP read a tuple already written by a
	// later transaction.
	CauseTOReadTooLate

	// CauseTOWriteTooLate: TIMESTAMP wrote a tuple already read or
	// written by a later transaction.
	CauseTOWriteTooLate

	// CauseMVCCVersionGone: MVCC found no version of the tuple old
	// enough for the transaction's timestamp.
	CauseMVCCVersionGone

	// CauseMVCCWriteTooLate: MVCC wrote beneath a version a later
	// transaction has already read.
	CauseMVCCWriteTooLate

	// CauseOCCValidation: OCC's read-set validation failed at commit.
	CauseOCCValidation

	// NumAbortCauses is the number of causes.
	NumAbortCauses
)

// abortCauseNames are the stable snake_case names, indexed by cause.
var abortCauseNames = [NumAbortCauses]string{
	"other",
	"no_wait_conflict",
	"wait_die",
	"deadlock",
	"lock_timeout",
	"to_read_too_late",
	"to_write_too_late",
	"mvcc_version_gone",
	"mvcc_write_too_late",
	"occ_validation",
}

// String returns the cause's stable snake_case name.
func (c AbortCause) String() string {
	if c < NumAbortCauses {
		return abortCauseNames[c]
	}
	return fmt.Sprintf("abort_cause(%d)", uint8(c))
}

// AbortCauses counts aborts by cause, indexed by AbortCause; the counts
// sum to the aborts they break down. Its JSON form is an object keyed by
// cause name that leaves zero counts out.
type AbortCauses [NumAbortCauses]uint64

// Total returns the sum over every cause.
func (a *AbortCauses) Total() uint64 {
	var n uint64
	for _, v := range a {
		n += v
	}
	return n
}

func (a *AbortCauses) merge(other *AbortCauses) {
	for i, v := range other {
		a[i] += v
	}
}

// MarshalJSON renders the nonzero counts keyed by cause name, in cause
// order.
func (a AbortCauses) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for c, v := range a {
		if v == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%q:%d", abortCauseNames[c], v)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON restores counts written by MarshalJSON; an unknown cause
// name is an error.
func (a *AbortCauses) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*a = AbortCauses{}
	for name, v := range m {
		c := slices.Index(abortCauseNames[:], name)
		if c < 0 {
			return fmt.Errorf("core: unknown abort cause %q", name)
		}
		a[c] = v
	}
	return nil
}

package abyss1000_test

import (
	"runtime"
	"sync"
	"testing"

	"abyss1000/abyss"
	"abyss1000/workloads/smallbank"
)

// TestContendedNativeAllocBudget is the multi-worker half of the
// transaction-path allocation budget. BenchmarkTxn* runs one worker, which
// never conflicts, so it cannot see what a wait costs; here two native
// workers fight over 16 hot SmallBank customers under every scheme that
// waits, which is where the spilled lock and waiter lists and ParkTimeout's
// timer are live. Once the hot tuples have spilled and the lists have grown
// (the first interval is the warm-up), a completed transaction must allocate
// nothing but MVCC's amortized version-pool refills and chain growth — the
// budget TestTxnAllocBudget applies to one worker, 3 for MVCC and 0 for
// everyone else.
//
// Zero is stated as a rate, because a wait is rare next to a commit: with a
// heap timer per wait the parent of this change measured 0.06-0.09 mallocs
// per commit under DL_DETECT, 0.01-0.02 under TIMESTAMP and 0.3-1.2 under
// H-STORE, all of which `-benchmem` would print as 0 allocs/op. The counts
// are runtime.MemStats.Mallocs read at interval boundaries, so they include
// the engine's per-interval sampling, the rare first contention on a cold
// account and whatever the Go runtime itself allocates; allocSlack covers
// those on a run too short for the rate to absorb them.
func TestContendedNativeAllocBudget(t *testing.T) {
	const allocSlack = 64
	budgets := []struct {
		scheme string
		allocs float64 // per completed transaction, steady state
	}{
		{"DL_DETECT", 0.005},
		{"WAIT_DIE", 0.005},
		{"TIMESTAMP", 0.005},
		{"MVCC", 3},
		{"HSTORE", 0.005},
	}
	for _, b := range budgets {
		t.Run(b.scheme, func(t *testing.T) {
			db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallbank.DefaultConfig()
			cfg.Accounts, cfg.HotAccounts, cfg.HotPct = 4096, 16, 0.9
			wl, err := smallbank.Build(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := abyss.NewScheme(b.scheme)
			if err != nil {
				t.Fatal(err)
			}

			// Samples arrive in interval order; the first closes the
			// warm-up, the last closes the run.
			var (
				mu            sync.Mutex
				first, last   uint64 // Mallocs after the first and the latest sample
				steadyCommits uint64 // commits in the samples after the first
				seen          int
			)
			obs := abyss.ObserverFunc(func(smp abyss.Sample) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				defer mu.Unlock()
				if seen == 0 {
					first = ms.Mallocs
				} else {
					steadyCommits += smp.Commits
				}
				last = ms.Mallocs
				seen++
			})
			rc := abyss.RunConfig{
				WarmupCycles: 2_000_000, MeasureCycles: 60_000_000, AbortBackoff: 500, // ns
				SampleEvery: 20_000_000, Observer: obs,
			}
			if _, err := db.Run(s, wl, rc); err != nil {
				t.Fatal(err)
			}
			if seen < 2 || steadyCommits == 0 {
				t.Fatalf("%d samples, %d steady-state commits: nothing to measure", seen, steadyCommits)
			}
			mallocs := last - first
			t.Logf("%s: %d mallocs over %d commits = %.4f allocs/txn", b.scheme, mallocs, steadyCommits, float64(mallocs)/float64(steadyCommits))
			if limit := b.allocs*float64(steadyCommits) + allocSlack; float64(mallocs) > limit {
				t.Errorf("%s: %d mallocs over %d completed transactions under contention, budget %.0f (%.3f per transaction + %d)",
					b.scheme, mallocs, steadyCommits, limit, b.allocs, allocSlack)
			}
		})
	}
}

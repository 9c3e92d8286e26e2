package abyss1000_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"abyss1000/abyss"
)

// loadedDigests pins what each loader leaves behind, at a size small
// enough to build in milliseconds: the SHA-256 of a fresh DB's StateDump
// (every loaded row) followed by a walk of each named hash index in bucket
// and chain order. A loader may reorder its work — rows first, then each
// index in a pass of its own — but not what it loads, and not the order of
// any bucket's chain. smallbank-partitions' indexes have 32 768 buckets, the
// eight partitions Index.LoadAll links one after another (4 096 accounts fit
// in one), so it pins that they come out as LoadInsert's would. ycsb-split's
// 20 000 rows of 1 008 bytes are above the size from which a table's loaded
// rows are allocated in one extent per GOMAXPROCS, so it pins that the
// extents hold what one slab would.
var loadedDigests = []struct {
	workload string
	set      func(*abyss.WorkloadParams)
	hash     []string // hash indexes whose chains are pinned
	digest   string
}{
	{
		"smallbank", func(p *abyss.WorkloadParams) { p.Accounts = 4096 },
		[]string{"SB_SAVINGS_PK", "SB_CHECKING_PK"},
		"45a90a7b6b466ba1804194b8c69dfaf88f97f3a72b706d2ddae054fd3b5e3628",
	},
	{
		"smallbank-partitions", func(p *abyss.WorkloadParams) { p.Accounts = 20_000 },
		[]string{"SB_SAVINGS_PK", "SB_CHECKING_PK"},
		"d0979343de2d81d0829bc63b40b82e95ba92fb17aaffb278a2e7ae74ffb93d6a",
	},
	{
		"tpcc", func(p *abyss.WorkloadParams) { p.Warehouses, p.Mix = 2, "full" },
		[]string{"WAREHOUSE_PK", "DISTRICT_PK", "CUSTOMER_PK", "ITEM_PK", "STOCK_PK",
			"HISTORY_PK", "ORDERS_PK"},
		"374feb6a22c4c6430feb44b47c0ff002c9d328a9d5fc90d18021ded35052f226",
	},
	{
		"tatp", func(p *abyss.WorkloadParams) { p.Subscribers = 1000 },
		[]string{"SUBSCRIBER_PK", "ACCESS_INFO_PK", "SPECIAL_FACILITY_PK", "CALL_FORWARDING_PK"},
		"74115a6800b85e31ef5e429929ebe21121234cb56cfb7e2bfd102859898e7dd8",
	},
	{
		"ycsb", func(p *abyss.WorkloadParams) { p.Rows = 4096 },
		[]string{"USERTABLE_PK"},
		"6a98dd9cf11476b35642cb6d3ecc17e2b251762b795d6ab0e5d954f071a9c262",
	},
	{
		"ycsb-split", func(p *abyss.WorkloadParams) { p.Rows = 20_000 },
		[]string{"USERTABLE_PK"},
		"4fe1673f0bbcd00adf4dac0dc3f12d209149a7e087d64896be68f39b514a98a2",
	},
}

// TestLoadedStateDigest builds every workload fresh on both runtimes, at
// GOMAXPROCS 1 and 2, and compares its loaded state against the pinned
// digest.
func TestLoadedStateDigest(t *testing.T) {
	for _, c := range loadedDigests {
		workload, _, _ := strings.Cut(c.workload, "-")
		for _, rtName := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
			t.Run(c.workload+"/"+rtName, func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					db, err := abyss.Open(abyss.Options{Runtime: rtName, Cores: 4, Seed: 42})
					if err != nil {
						t.Fatal(err)
					}
					p, err := abyss.DefaultWorkloadParams(workload)
					if err != nil {
						t.Fatal(err)
					}
					c.set(&p)
					if _, err := db.BuildWorkload(workload, p); err != nil {
						t.Fatal(err)
					}
					sum := sha256.New()
					sum.Write([]byte(db.StateDump()))
					for _, name := range c.hash {
						idx, err := db.Index(name)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(sum, "hash %s\n", name)
						idx.Range(func(key uint64, slot int) { fmt.Fprintf(sum, "  %d -> %d\n", key, slot) })
					}
					if got := hex.EncodeToString(sum.Sum(nil)); got != c.digest {
						t.Errorf("GOMAXPROCS %d: loaded state digest %s, want %s", procs, got, c.digest)
					}
				}
			})
		}
	}
}

// TestYCSBShortPayload: YCSB rows with fewer payload bytes than the loader's
// 8-byte word build, and the workload passes a checked round.
func TestYCSBShortPayload(t *testing.T) {
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	p.Rows, p.Fields, p.FieldSize = 1024, 1, 4
	wl, err := db.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(s, wl, abyss.RunConfig{WarmupCycles: 20_000, MeasureCycles: 200_000, AbortBackoff: 500, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.CheckSerializability()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || !rep.OK() {
		t.Fatalf("%d commits, check: %s", res.Commits, rep)
	}
}

package abyss1000_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"abyss1000/abyss"
)

// loadedDigests pins what each loader leaves behind, at a size small
// enough to build in milliseconds: the SHA-256 of a fresh DB's StateDump
// (every loaded row) followed by a walk of each named hash index in bucket
// and chain order. A loader may reorder its work — rows first, then each
// index in a pass of its own — but not what it loads, and not the order of
// any bucket's chain.
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
		"tpcc", func(p *abyss.WorkloadParams) { p.Warehouses, p.Mix = 2, "full" },
		[]string{"WAREHOUSE_PK", "DISTRICT_PK", "CUSTOMER_PK", "ITEM_PK", "STOCK_PK",
			"HISTORY_PK", "ORDERS_PK", "NEW_ORDER_PK", "ORDER_LINE_PK"},
		"b3f8271e8175a871f0ad0e5f4ae8a219591e9a6ba68f8d0f00307db30ae7ff85",
	},
	{
		"tatp", func(p *abyss.WorkloadParams) { p.Subscribers = 1000 },
		[]string{"SUBSCRIBER_PK", "ACCESS_INFO_PK", "SPECIAL_FACILITY_PK", "CALL_FORWARDING_PK"},
		"74115a6800b85e31ef5e429929ebe21121234cb56cfb7e2bfd102859898e7dd8",
	},
	{
		"ycsb", func(p *abyss.WorkloadParams) { p.Rows = 4096 },
		[]string{"USERTABLE_PK"},
		"ee44de0cf9d1f817146e3cacb60db1a69841b652289cfec2e56fca95615d626a",
	},
}

// TestLoadedStateDigest builds every workload fresh on both runtimes and
// compares its loaded state against the pinned digest.
func TestLoadedStateDigest(t *testing.T) {
	for _, c := range loadedDigests {
		for _, runtime := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
			t.Run(c.workload+"/"+runtime, func(t *testing.T) {
				db, err := abyss.Open(abyss.Options{Runtime: runtime, Cores: 4, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				p, err := abyss.DefaultWorkloadParams(c.workload)
				if err != nil {
					t.Fatal(err)
				}
				c.set(&p)
				if _, err := db.BuildWorkload(c.workload, p); err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				b.WriteString(db.StateDump())
				for _, name := range c.hash {
					idx, err := db.Index(name)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "hash %s\n", name)
					idx.Range(func(key uint64, slot int) { fmt.Fprintf(&b, "  %d -> %d\n", key, slot) })
				}
				sum := sha256.Sum256([]byte(b.String()))
				if got := hex.EncodeToString(sum[:]); got != c.digest {
					t.Errorf("loaded state digest %s, want %s", got, c.digest)
				}
			})
		}
	}
}

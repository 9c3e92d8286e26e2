package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

// TestKillNineKeepsAckedCommits is the durability net from the outside:
// a real abyss-serve logging every commit to a file is SIGKILLed at a
// seeded random instant under several binary callers, and recovering the
// file must replay at least as many commits as the callers saw
// acknowledged. A server that replied before a commit's record was
// durable loses acknowledged commits whenever the kill lands between the
// reply and the fsync.
func TestKillNineKeepsAckedCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and kills it three times")
	}
	bin := filepath.Join(t.TempDir(), "abyss-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building abyss-serve: %v\n%s", err, out)
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { killAndRecover(t, bin, seed) })
	}
}

const (
	killRows  = 4096
	killCores = 2
	killSeed  = 42
)

func killAndRecover(t *testing.T, bin string, seed int64) {
	walPath := filepath.Join(t.TempDir(), "serve.wal")
	cmd := exec.Command(bin, "-workload", "ycsb", "-readpct", "0",
		"-rows", fmt.Sprint(killRows), "-cores", fmt.Sprint(killCores), "-seed", fmt.Sprint(killSeed),
		"-wal", walPath, "-http", "", "-tcp", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting abyss-serve: %v", err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	addr := ""
	for addr == "" && lines.Scan() {
		addr, _ = strings.CutPrefix(lines.Text(), "abyss-serve: binary on ")
	}
	if addr == "" {
		t.Fatalf("abyss-serve printed no binary address: %v", lines.Err())
	}
	go func() {
		for lines.Scan() {
		}
	}()

	// Two connections of two callers each, invoking until the kill cuts
	// them off.
	var committed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		conn, err := client.DialBinary(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(part int) {
				defer wg.Done()
				for {
					rep, err := conn.Invoke(serve.InvokeRequest{Partition: part})
					if err != nil {
						return
					}
					if rep.Outcome == serve.WireCommitted {
						committed.Add(1)
					}
				}
			}(k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	time.Sleep(100*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond))))
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	wg.Wait()
	cmd.Wait()
	acked := committed.Load()
	if acked == 0 {
		t.Fatal("no commit was acknowledged before the kill")
	}

	stream, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: killCores, Seed: killSeed})
	if err != nil {
		t.Fatal(err)
	}
	params, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	params.Rows, params.ReadPct = killRows, 0
	if _, err := db.BuildWorkload("ycsb", params); err != nil {
		t.Fatal(err)
	}
	info, err := db.Recover(stream)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	t.Logf("%d commits acknowledged, %d recovered (%d torn bytes)", acked, info.Commits, info.TornBytes)
	if int64(info.Commits) < acked {
		t.Fatalf("recovered %d commits but the callers saw %d acknowledged", info.Commits, acked)
	}
}

package abyss_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abyss1000/abyss"
)

func serveYCSB(t *testing.T, cores int) (*abyss.DB, abyss.Workload, abyss.Scheme) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: cores, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	p.Rows = 4096
	wl, err := db.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	return db, wl, scheme
}

// TestSessionInvokeDrain pins the Session accounting contract: every
// invocation gets exactly one reply, and the drained Result's
// Commits/Deadlined/Offered reconcile with the replies observed by the
// submitters.
func TestSessionInvokeDrain(t *testing.T) {
	db, wl, scheme := serveYCSB(t, 2)
	s, err := db.Serve(scheme, wl, abyss.RunConfig{AbortBackoff: uint64(time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}

	const clients, per = 4, 50
	var committed, deadlined atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				inv := abyss.Invocation{}
				if i%2 == 0 {
					inv.Routed = true
					inv.Partition = c % s.Workers()
				}
				elapsed, err := s.Invoke(inv)
				switch err {
				case nil, abyss.ErrUserAbort:
					committed.Add(1)
				case abyss.ErrDeadline:
					deadlined.Add(1)
				default:
					t.Errorf("Invoke: %v", err)
					return
				}
				if elapsed <= 0 {
					t.Errorf("elapsed = %v, want > 0", elapsed)
				}
			}
		}(c)
	}
	wg.Wait()

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != committed.Load() {
		t.Fatalf("Result.Commits = %d, committed replies = %d", res.Commits, committed.Load())
	}
	if res.Deadlined != deadlined.Load() {
		t.Fatalf("Result.Deadlined = %d, deadlined replies = %d", res.Deadlined, deadlined.Load())
	}
	if res.Offered != clients*per {
		t.Fatalf("Result.Offered = %d, want %d", res.Offered, clients*per)
	}
	if res.Shed != 0 {
		t.Fatalf("Result.Shed = %d, want 0", res.Shed)
	}
	if res.QueueDepth.Count() != res.Offered {
		t.Fatalf("queue depth observations %d != offered %d", res.QueueDepth.Count(), res.Offered)
	}
	assertCountersMatch(t, s, res)
	if res.MeasureCycles == 0 || res.MeasureCycles >= uint64(1)<<62 {
		t.Fatalf("MeasureCycles = %d, want the actual serving span", res.MeasureCycles)
	}
	if res.Latency.Count() != res.Commits {
		t.Fatalf("latency count %d != commits %d", res.Latency.Count(), res.Commits)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("Throughput = %g, want > 0", res.Throughput())
	}

	// Drain is idempotent and the session refuses new work.
	res2, err := s.Drain()
	if err != nil || res2.MeasureCycles != res.MeasureCycles || res2.Commits != res.Commits {
		t.Fatalf("second Drain = (%+v, %v), want the first result", res2, err)
	}
	if _, err := s.Invoke(abyss.Invocation{}); !errors.Is(err, abyss.ErrSessionClosed) {
		t.Fatalf("Invoke after Drain = %v, want ErrSessionClosed", err)
	}
}

// slowTxn sleeps for sleep in its body — real wall time on the native
// runtime — so tests can park a worker with it.
type slowTxn struct {
	table *abyss.Table
	idx   *abyss.Index
	key   uint64
	sleep time.Duration
}

func (s *slowTxn) Generate(p abyss.Proc) { s.key = uint64(p.Rand().Intn(64)) }

func (s *slowTxn) Run(tx *abyss.TxnCtx) error {
	if s.sleep > 0 {
		time.Sleep(s.sleep)
	}
	slot, ok := tx.Lookup(s.idx, s.key)
	if !ok {
		return fmt.Errorf("key %d not found", s.key)
	}
	row, err := tx.Read(s.table, slot)
	if err != nil {
		return err
	}
	_ = row
	return nil
}

func (s *slowTxn) Partitions() []int { return nil }

// plainTxn reads one random row and returns.
type plainTxn struct {
	table *abyss.Table
	idx   *abyss.Index
	key   uint64
}

func (t *plainTxn) Generate(p abyss.Proc) { t.key = uint64(p.Rand().Intn(64)) }

func (t *plainTxn) Run(tx *abyss.TxnCtx) error {
	slot, ok := tx.Lookup(t.idx, t.key)
	if !ok {
		return fmt.Errorf("key %d not found", t.key)
	}
	_, err := tx.Read(t.table, slot)
	return err
}

func (t *plainTxn) Partitions() []int { return nil }

// serveMix builds a Mix of two procedures over a 64-row table: "touch",
// a slowTxn that sleeps for sleep, and "plain", a plainTxn.
func serveMix(t *testing.T, cores int, sleep time.Duration) (*abyss.DB, *abyss.Mix) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: cores, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	table, err := db.CreateTable(abyss.TableSpec{
		Name:     "T",
		Cols:     []abyss.Col{{Name: "K", Width: 8}, {Name: "V", Width: 8}},
		Capacity: 64, Loaded: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex("T_PK", table, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		row := table.LoadRow(i)
		table.Schema.PutU64(row, 0, uint64(i))
		idx.LoadInsert(uint64(i), i)
	}
	mix, err := db.NewMix(
		abyss.TxnSpec{Name: "touch", Weight: 1, New: func(int) abyss.Txn { return &slowTxn{table: table, idx: idx, sleep: sleep} }},
		abyss.TxnSpec{Name: "plain", Weight: 1, New: func(int) abyss.Txn { return &plainTxn{table: table, idx: idx} }},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, mix
}

// TestSessionProcedures pins the stored-procedure surface: named
// invocation and the rejection paths (unknown procedure, negative
// partition).
func TestSessionProcedures(t *testing.T) {
	db, mix := serveMix(t, 2, 0)
	scheme, err := abyss.NewScheme("DL_DETECT")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Serve(scheme, mix, abyss.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	if got := s.Procedures(); len(got) != 2 || got[0] != "touch" {
		t.Fatalf("Procedures = %v", got)
	}
	if elapsed, err := s.Invoke(abyss.Invocation{Proc: "touch", Routed: true, Partition: 1}); err != nil || elapsed <= 0 {
		t.Fatalf("touch = (%v, %v), want committed", elapsed, err)
	}
	if _, err := s.Invoke(abyss.Invocation{Proc: "nope"}); err == nil || !strings.Contains(err.Error(), "no procedure") {
		t.Fatalf("unknown proc err = %v", err)
	}
	if _, err := s.Invoke(abyss.Invocation{Routed: true, Partition: -1}); err == nil {
		t.Fatal("negative partition accepted")
	}
}

// TestSessionShedAndDeadline drives a session with one worker, a tiny
// queue and a parked worker: admission overflow sheds with ErrShed, and
// a queued invocation whose deadline lapses comes back ErrDeadline
// without executing.
func TestSessionShedAndDeadline(t *testing.T) {
	db, mix := serveMix(t, 1, 100*time.Millisecond)
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Serve(scheme, mix, abyss.RunConfig{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Park the single worker for 100 ms.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Invoke(abyss.Invocation{Proc: "touch"}); err != nil {
			t.Errorf("parked invoke: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the worker pick it up

	// The queue holds one; a second concurrent submission must shed.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Invoke(abyss.Invocation{Proc: "plain", Deadline: time.Nanosecond})
			done <- err
		}()
	}
	var sheds, deadlined int
	for i := 0; i < 2; i++ {
		switch err := <-done; err {
		case abyss.ErrShed:
			sheds++
		case abyss.ErrDeadline:
			deadlined++
		default:
			t.Fatalf("unexpected outcome %v", err)
		}
	}
	if sheds != 1 || deadlined != 1 {
		t.Fatalf("sheds = %d, deadlined = %d, want 1 and 1 (queue depth 1, 1ns deadline)", sheds, deadlined)
	}
	wg.Wait()

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1 {
		t.Fatalf("Result.Shed = %d, want 1 (one admission shed)", res.Shed)
	}
	if res.Deadlined != 1 {
		t.Fatalf("Result.Deadlined = %d, want 1 (queued past its 1ns deadline)", res.Deadlined)
	}
	assertCountersMatch(t, s, res)
}

// assertCountersMatch checks that a drained session's admission tally
// is exactly the drained Result's offered, shed and queue depths: every
// Submit's count landed before Drain merged it, and the engine added
// none of its own.
func assertCountersMatch(t *testing.T, s *abyss.Session, res abyss.Result) {
	t.Helper()
	c := s.Counters()
	if c.Offered != res.Offered || c.Shed != res.Shed || c.QueueDepth != res.QueueDepth {
		t.Fatalf("Counters (offered %d, shed %d, queue depth %+v) disagree with Result (offered %d, shed %d, queue depth %+v)",
			c.Offered, c.Shed, c.QueueDepth, res.Offered, res.Shed, res.QueueDepth)
	}
}

// TestSessionDefaultDeadline pins that an invocation carrying no
// deadline takes RunConfig.Deadline, counted from its arrival: queued
// behind a parked worker past that budget, it comes back ErrDeadline
// without executing.
func TestSessionDefaultDeadline(t *testing.T) {
	db, mix := serveMix(t, 1, 100*time.Millisecond)
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10 * time.Millisecond
	s, err := db.Serve(scheme, mix, abyss.RunConfig{QueueDepth: 1, Deadline: uint64(budget)})
	if err != nil {
		t.Fatal(err)
	}

	// Park the single worker for 100 ms; its own generous deadline keeps
	// it clear of the default.
	parked := make(chan error, 1)
	go func() {
		_, err := s.Invoke(abyss.Invocation{Proc: "touch", Deadline: time.Hour})
		parked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the worker pick it up

	elapsed, err := s.Invoke(abyss.Invocation{Proc: "plain"})
	if err != abyss.ErrDeadline {
		t.Fatalf("queued invoke = %v, want ErrDeadline from RunConfig.Deadline", err)
	}
	if elapsed < budget {
		t.Fatalf("elapsed = %v, want at least the %v budget spent queued", elapsed, budget)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked invoke: %v", err)
	}
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 1 || res.Deadlined != 1 || res.Aborts != 0 {
		t.Fatalf("commits/deadlined/aborts = %d/%d/%d, want 1/1/0 (the queued invocation never ran)", res.Commits, res.Deadlined, res.Aborts)
	}
}

// TestServeValidation pins the front-door validation errors.
func TestServeValidation(t *testing.T) {
	simDB, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := abyss.DefaultWorkloadParams("ycsb")
	p.Rows = 1024
	wl, err := simDB.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := abyss.NewScheme("NO_WAIT")
	if _, err := simDB.Serve(scheme, wl, abyss.RunConfig{}); err == nil || !strings.Contains(err.Error(), "native") {
		t.Fatalf("sim Serve err = %v, want native-runtime requirement", err)
	}

	db, wl2, scheme2 := serveYCSB(t, 1)
	if _, err := db.Serve(scheme2, wl2, abyss.RunConfig{QueueDepth: -1}); err == nil {
		t.Fatal("negative QueueDepth accepted")
	}
	if _, err := db.Serve(scheme2, wl2, abyss.RunConfig{RetryLimit: -1}); err == nil {
		t.Fatal("negative RetryLimit accepted")
	}
	if _, err := db.Serve(scheme2, wl2, abyss.RunConfig{MeasureCycles: 1_000_000}); err == nil || !strings.Contains(err.Error(), "serving run") {
		t.Fatalf("Serve with a caller-set window err = %v, want a serving-run rejection", err)
	}
	// The DB's single measurement is still unclaimed after failed
	// validation; a session claims it and a second Serve errors.
	s, err := db.Serve(scheme2, wl2, abyss.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	if _, err := db.Serve(scheme2, wl2, abyss.RunConfig{}); err == nil || !strings.Contains(err.Error(), "already ran") {
		t.Fatalf("second Serve err = %v, want already-ran", err)
	}
}

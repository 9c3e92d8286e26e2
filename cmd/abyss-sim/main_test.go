package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildSim compiles the abyss-sim binary into a temp dir once per test.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "abyss-sim")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building abyss-sim: %v\n%s", err, out)
	}
	return bin
}

// TestCheckReproLine pins the -check repro contract from the shell: the
// exact command line a failure report would print (same workload,
// scheme, runtime, cores, seed, window) reruns the identical simulated
// schedule, so its verdict output is byte-identical across invocations.
func TestCheckReproLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary twice")
	}
	bin := buildSim(t)
	args := []string{
		"-check", "-workload", "chaos", "-scheme", "NO_WAIT", "-runtime", "sim",
		"-cores", "4", "-seed", "77", "-warmup", "40000", "-measure", "250000",
	}
	run := func() string {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("abyss-sim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("repro command is not deterministic:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if !strings.Contains(first, "serializability check: PASS") {
		t.Fatalf("expected a PASS verdict line, got:\n%s", first)
	}
}

// TestOverloadFlagsDeterministic pins the open-loop CLI surface: the full
// overload flag set (arrivals, queue bound, deadline, retry budget,
// backoff cap, fault injection) produces byte-identical output across
// invocations on the simulator, including the overload summary line.
func TestOverloadFlagsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary twice")
	}
	bin := buildSim(t)
	args := []string{
		"-scheme", "NO_WAIT", "-cores", "8", "-seed", "5", "-rows", "4096",
		"-warmup", "50000", "-measure", "400000",
		"-arrivals", "mmpp:500000:4000000:200000:50000",
		"-qdepth", "8", "-deadline", "60000", "-retry", "4", "-backoff-cap", "8000",
		"-fault", "spike:100000:5000,stall:1:100000:200000",
	}
	run := func() string {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("abyss-sim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("open-loop run is not deterministic:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	for _, want := range []string{"overload:", "offered", "goodput", "shed", "deadlined", "qdepth"} {
		if !strings.Contains(first, want) {
			t.Fatalf("overload summary missing %q:\n%s", want, first)
		}
	}
}

// TestPlainRunSIGINT pins graceful interruption of a plain (non-streaming)
// run: SIGINT mid-measurement drains the workers, prints the partial
// result with an interruption marker, and exits 130.
func TestPlainRunSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a multi-second native window")
	}
	bin := buildSim(t)
	// A native run with a 30-second window: long enough that the signal
	// always lands mid-measurement, even on a loaded CI machine.
	cmd := exec.Command(bin,
		"-runtime", "native", "-scheme", "NO_WAIT", "-cores", "2", "-rows", "4096",
		"-warmup", "10000000", "-measure", "30000000000")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit code 130, got err=%v\noutput:\n%s", err, out.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit code = %d, want 130\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "interrupted: partial window") {
		t.Fatalf("missing interruption marker:\n%s", out.String())
	}
	// The partial result line itself must still be there.
	if !strings.Contains(out.String(), "txn/s") {
		t.Fatalf("missing partial result line:\n%s", out.String())
	}
}

// TestFullMixAndTATPCLI pins the new workload surface from the shell:
// -mix full runs the five-transaction TPC-C mix with every type
// committing, -workload tatp resolves through the registry, and an
// unknown -mix fails fast listing the valid choices.
func TestFullMixAndTATPCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary several times")
	}
	bin := buildSim(t)

	run := func(args ...string) string {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("abyss-sim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	full := run("-workload", "tpcc", "-mix", "full", "-scheme", "NO_WAIT",
		"-cores", "4", "-warmup", "50000", "-measure", "600000", "-hist")
	for _, txn := range []string{"Payment", "NewOrder", "OrderStatus", "Delivery", "StockLevel"} {
		if !strings.Contains(full, txn) {
			t.Errorf("full-mix -hist output missing %s:\n%s", txn, full)
		}
	}

	tatp := run("-workload", "tatp", "-scheme", "MVCC", "-cores", "4",
		"-subscribers", "2048", "-warmup", "50000", "-measure", "600000", "-hist")
	for _, txn := range []string{"GetSubscriberData", "UpdateLocation", "InsertCallForwarding"} {
		if !strings.Contains(tatp, txn) {
			t.Errorf("tatp -hist output missing %s:\n%s", txn, tatp)
		}
	}

	out, err := exec.Command(bin, "-workload", "tpcc", "-mix", "bogus",
		"-cores", "2", "-measure", "100000").CombinedOutput()
	if err == nil {
		t.Fatalf("-mix bogus should fail, got:\n%s", out)
	}
	if !strings.Contains(string(out), "paper") || !strings.Contains(string(out), "full") {
		t.Fatalf("unknown-mix error should list the valid mixes, got:\n%s", out)
	}

	if list := run("-list"); !strings.Contains(list, "tatp") {
		t.Fatalf("-list does not mention tatp:\n%s", list)
	}
}

// TestExplicitWindow: the window a command line gives is the window the run
// takes. TPC-C's insert segments are sized for warm-up and measurement
// together, so a long warm-up before a short measurement does not exhaust
// HISTORY's; a native run keeps an explicit -warmup and -measure, whatever
// their size; and a flag not given leaves the DB's DefaultRunConfig window
// (1.5 M cycles simulated, 50 ms native).
func TestExplicitWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary four times")
	}
	bin := buildSim(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "tpcc", "-scheme", "HSTORE", "-cores", "1", "-warmup", "8000000", "-measure", "200000"}, "HSTORE"},
		{[]string{"-runtime", "native", "-cores", "2", "-rows", "4096", "-warmup", "1000", "-measure", "2000000", "-interval", "1000000"}, "[2000000/2000000]"},
		{[]string{"-cores", "4", "-rows", "4096", "-interval", "750000"}, "[1500000/1500000]"},
		{[]string{"-runtime", "native", "-cores", "2", "-rows", "4096", "-warmup", "1000", "-interval", "25000000"}, "[50000000/50000000]"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("abyss-sim %s: %v, want %q in:\n%s", strings.Join(tc.args, " "), err, tc.want, out)
		}
	}
}

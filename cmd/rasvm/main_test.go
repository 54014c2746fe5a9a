package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vmach/kernel"
)

// demo builds options for the built-in counter workload.
func demo(strategy, mech string, quantum uint64) options {
	return options{
		arch: "r3000", strategy: strategy, checkAt: "suspend", quantum: quantum,
		demo: "counter", mech: mech, workers: 2, iters: 50, watchdog: "off",
	}
}

func TestDemoCounterAllMechanisms(t *testing.T) {
	cases := []struct {
		strategy, mech string
	}{
		{"registration", "registered"},
		{"designated", "designated"},
		{"userlevel", "userlevel"},
		{"none", "emulation"},
		{"none", "lamport-a"},
		{"none", "lamport-b"},
	}
	for _, c := range cases {
		if err := run(io.Discard, demo(c.strategy, c.mech, 500)); err != nil {
			t.Errorf("%s/%s: %v", c.strategy, c.mech, err)
		}
	}
}

func TestDemoCounterInterlockedOn486(t *testing.T) {
	o := demo("none", "interlocked", 500)
	o.arch = "486"
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

func TestDemoWithTrace(t *testing.T) {
	o := demo("registration", "registered", 53)
	o.trace = 16
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

func TestCheckAtResume(t *testing.T) {
	o := demo("designated", "designated", 211)
	o.checkAt = "resume"
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

// -watchdog abort turns a §3.1 livelock (quantum shorter than the
// sequence) into a nonzero exit with a diagnostic instead of running to
// the cycle budget.
func TestWatchdogAbortFlagCatchesLivelock(t *testing.T) {
	o := demo("designated", "designated", 3)
	o.checkAt = "resume"
	o.workers, o.iters = 1, 1
	o.watchdog = "abort"
	o.maxRestarts = 20
	err := run(io.Discard, o)
	if !errors.Is(err, kernel.ErrLivelock) {
		t.Errorf("err = %v, want livelock", err)
	}
}

// -watchdog extend lets the same overlong sequence complete.
func TestWatchdogExtendFlagCompletes(t *testing.T) {
	o := demo("designated", "designated", 3)
	o.checkAt = "resume"
	o.workers, o.iters = 1, 5
	o.watchdog = "extend"
	o.maxRestarts = 12
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

// -timeout bounds a livelocked guest when the watchdog is off.
func TestTimeoutFlagBoundsLivelock(t *testing.T) {
	o := demo("designated", "designated", 3)
	o.checkAt = "resume"
	o.workers, o.iters = 1, 1
	o.timeout = 100_000
	err := run(io.Discard, o)
	if !errors.Is(err, kernel.ErrBudget) {
		t.Errorf("err = %v, want budget exceeded", err)
	}
}

func TestSourceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.s")
	src := "main:\n\tli a0, 0\n\tli v0, 0\n\tsyscall\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{arch: "r3000", strategy: "none", checkAt: "suspend",
		quantum: 1000, watchdog: "off", args: []string{path}}
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

func TestErrors(t *testing.T) {
	bad := func(mutate func(*options)) options {
		o := demo("registration", "registered", 100)
		o.workers, o.iters = 1, 1
		mutate(&o)
		return o
	}
	if err := run(io.Discard, bad(func(o *options) { o.arch = "pdp11" })); err == nil {
		t.Error("unknown arch accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.strategy = "bogus" })); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.checkAt = "sideways" })); err == nil {
		t.Error("unknown check placement accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.demo = "frobnicate" })); err == nil {
		t.Error("unknown demo accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.mech = "warp-drive" })); err == nil {
		t.Error("unknown mechanism accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.watchdog = "maybe" })); err == nil {
		t.Error("unknown watchdog policy accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.demo = "" })); err == nil {
		t.Error("missing source file accepted")
	}
	if err := run(io.Discard, bad(func(o *options) { o.demo = ""; o.args = []string{"/nonexistent.s"} })); err == nil {
		t.Error("unreadable source accepted")
	}
}

func TestDemoRecoverable(t *testing.T) {
	o := demo("registration", "registered", 300)
	o.demo = "recoverable"
	o.workers, o.iters = 3, 40
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

// -kill-at orphans the lock mid-run; the recoverable demo must still
// terminate (survivors repair and finish, the kernel reaps the corpse).
func TestKillAtRepairsOrphan(t *testing.T) {
	o := demo("registration", "registered", 300)
	o.demo = "recoverable"
	o.workers, o.iters = 3, 40
	o.killAt = "1500"
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

// -crash-at + -checkpoint writes a snapshot where the crash struck, and
// -restore replays the remainder to a clean exit.
func TestCrashCheckpointRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	o := demo("registration", "registered", 500)
	o.iters = 200
	o.crashAt, o.checkpoint = 3000, path
	if err := run(io.Discard, o); !errors.Is(err, kernel.ErrMachineCrash) {
		t.Fatalf("err = %v, want machine crash", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	var r options
	r.arch, r.strategy, r.checkAt = "r3000", "registration", "suspend"
	r.quantum, r.watchdog, r.restore = 500, "off", path
	if err := run(io.Discard, r); err != nil {
		t.Errorf("restore replay: %v", err)
	}
}

// -restore rejects a checkpoint whose quantum was edited to zero; such a
// kernel would never preempt, so the restored run could not end.
func TestRestoreRejectsZeroQuantum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	o := demo("registration", "registered", 500)
	o.iters = 200
	o.crashAt, o.checkpoint = 3000, path
	if err := run(io.Discard, o); !errors.Is(err, kernel.ErrMachineCrash) {
		t.Fatalf("err = %v, want machine crash", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := kernel.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	snap.Quantum = 0
	if err := os.WriteFile(path, snap.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	var r options
	r.arch, r.strategy, r.checkAt = "r3000", "registration", "suspend"
	r.quantum, r.watchdog, r.restore = 500, "off", path
	r.timeout = 100000 // ends the run if the quantum is accepted
	if err := run(io.Discard, r); err == nil || !strings.Contains(err.Error(), "zero quantum") {
		t.Errorf("restore of a zero-quantum checkpoint: err = %v, want a zero-quantum error", err)
	}
}

// -checkpoint-at snapshots a healthy run mid-flight; the original run and
// the restored run both complete.
func TestCheckpointAtStep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	o := demo("registration", "registered", 500)
	o.iters = 200
	o.checkpointAt, o.checkpoint = 2000, path
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	var r options
	r.arch, r.strategy, r.checkAt = "r3000", "registration", "suspend"
	r.quantum, r.watchdog, r.restore = 500, "off", path
	if err := run(io.Discard, r); err != nil {
		t.Errorf("restore replay: %v", err)
	}
}

func TestRecoveryFlagErrors(t *testing.T) {
	o := demo("registration", "registered", 300)
	o.killAt = "12,frog"
	if err := run(io.Discard, o); err == nil {
		t.Error("malformed -kill-at accepted")
	}
	o = demo("registration", "registered", 300)
	o.checkpointAt = 100 // no -checkpoint file
	if err := run(io.Discard, o); err == nil {
		t.Error("-checkpoint-at without -checkpoint accepted")
	}
	o = demo("registration", "registered", 300)
	o.restore = filepath.Join(t.TempDir(), "missing.bin")
	if err := run(io.Discard, o); err == nil {
		t.Error("missing -restore file accepted")
	}
	bad := filepath.Join(t.TempDir(), "garbage.bin")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	o = demo("registration", "registered", 300)
	o.restore = bad
	if err := run(io.Discard, o); !errors.Is(err, kernel.ErrBadCheckpoint) {
		t.Errorf("err = %v, want bad checkpoint", err)
	}
}

func TestDemoTaosMutex(t *testing.T) {
	o := demo("designated", "taos-mutex", 97)
	o.checkAt = "resume"
	o.workers, o.iters = 3, 80
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

// journalDemo builds options for the -demo journal workload.
func journalDemo(mode string, target int, crashAt uint64, torn bool) options {
	return options{
		arch: "r3000", strategy: "designated", checkAt: "resume", quantum: 10000,
		demo: "journal", logMode: mode, iters: target, crashAt: crashAt, torn: torn,
		watchdog: "off",
	}
}

func TestDemoJournal(t *testing.T) {
	// Clean runs and crash-recovered runs of both sound disciplines.
	for _, mode := range []string{"redo", "undo"} {
		if err := run(io.Discard, journalDemo(mode, 50, 0, false)); err != nil {
			t.Errorf("%s clean: %v", mode, err)
		}
		for _, crashAt := range []uint64{300, 700, 1100} {
			for _, torn := range []bool{false, true} {
				if err := run(io.Discard, journalDemo(mode, 50, crashAt, torn)); err != nil {
					t.Errorf("%s crash-at %d torn=%v: %v", mode, crashAt, torn, err)
				}
			}
		}
	}
	if err := run(io.Discard, journalDemo("vibes", 50, 0, false)); err == nil {
		t.Error("unknown -log accepted")
	}
}

func TestDemoJournalNofenceTornIsInconsistent(t *testing.T) {
	// The planted bug survives clean crashes (the two data write-backs
	// share one fence) but a torn crash in the flush window splits them
	// with no durable record to repair from. Step 695 lands there; the
	// demo must surface the inconsistency as an error.
	if err := run(io.Discard, journalDemo("nofence", 50, 695, true)); err == nil {
		t.Error("nofence torn crash reported a consistent recovery")
	}
	// A clean crash at the same step stays consistent: this narrows the
	// bug's signature to torn write-backs specifically.
	if err := run(io.Discard, journalDemo("nofence", 50, 695, false)); err != nil {
		t.Errorf("nofence clean crash: %v", err)
	}
}

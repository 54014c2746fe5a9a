package smp

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
)

// stepUntilPC single-steps one CPU until its running thread is about to
// execute pc, and returns that kernel's step ordinal there.
func stepUntilPC(t *testing.T, s *System, cpu int, pc uint32) uint64 {
	t.Helper()
	k := s.CPUs[cpu]
	for i := 0; i < 1_000_000; i++ {
		if cur := k.Current(); cur != nil && cur.Ctx.PC == pc {
			return k.Steps()
		}
		if _, done := s.StepCPU(cpu, 1); done {
			t.Fatalf("cpu%d finished (%v) before reaching pc %#x", cpu, s.CPUVerdict(cpu), pc)
		}
	}
	t.Fatalf("cpu%d never reached pc %#x", cpu, pc)
	return 0
}

// Killing a thread that holds an ll/sc reservation must invalidate the
// reservation immediately — exactly as a context switch does — so a
// later thread's sc can never succeed against the dead thread's ll.
func TestKillClearsReservation(t *testing.T) {
	s := New(Config{CPUs: 1})
	prog := guest.Assemble(guest.SMPCounterProgram(guest.SMPLLSC, 1))
	s.Load(prog)
	const iters = 5
	for w := 0; w < 2; w++ {
		s.Spawn(0, prog.MustSymbol("worker"), guest.StackTop(GlobalID(0, w)), isa.Word(iters))
	}
	var badStores []string
	counterAddr := prog.MustSymbol("counter")
	s.Mem.Watch(counterAddr, func(old, new isa.Word) {
		if new != old+1 && len(badStores) < 4 {
			badStores = append(badStores, "lost update")
		}
	})

	// Park the first worker between its ll and its sc: lacq is
	// ll / bne / ori / sc, so PC = lacq+12 means the ll has retired and
	// the reservation is live.
	scPC := prog.MustSymbol("lacq") + 12
	stepUntilPC(t, s, 0, scPC)
	k := s.CPUs[0]
	if addr, ok := k.M.Reservation(); !ok || addr != prog.MustSymbol("slock") {
		t.Fatalf("no live reservation at the sc (addr %#x, valid %v)", addr, ok)
	}
	victim := k.Current().ID
	if err := s.KillThread(0, victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.M.Reservation(); ok {
		t.Error("reservation survived the kill; a stale ll could let a foreign sc succeed")
	}

	if err := s.Run(); err != nil {
		t.Fatalf("run after kill: %v", err)
	}
	if len(badStores) > 0 {
		t.Errorf("counter saw %d non-increment stores after the kill", len(badStores))
	}
	if st := k.Threads()[victim].State; st != kernel.StateKilled {
		t.Errorf("victim state %v, want killed", st)
	}
	// The survivor completed its full quota; the victim died before its
	// first increment (it never passed the sc).
	if got := s.Mem.Peek(counterAddr); got != iters {
		t.Errorf("counter %d, want the survivor's %d", got, iters)
	}
}

// Killing the only runnable thread on one CPU of a two-CPU system must
// not wedge the system: that CPU retires cleanly and the other CPU's
// workload completes exactly.
func TestKillLastRunnableOnOneCPU(t *testing.T) {
	s := New(Config{CPUs: 2})
	prog := guest.Assemble(guest.SMPCounterProgram(guest.SMPSpin, 2))
	s.Load(prog)
	const iters = 25
	for cpu := 0; cpu < 2; cpu++ {
		s.Spawn(cpu, prog.MustSymbol("worker"), guest.StackTop(GlobalID(cpu, 0)), isa.Word(iters))
	}
	// Two steps retire only register setup — CPU0's worker has not
	// touched the lock, so its death cannot strand the shared word.
	s.StepCPU(0, 1)
	s.StepCPU(0, 1)
	if err := s.KillThread(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("2-CPU run after killing cpu0's only thread: %v", err)
	}
	for cpu := 0; cpu < 2; cpu++ {
		if err := s.CPUVerdict(cpu); err != nil {
			t.Errorf("cpu%d verdict: %v", cpu, err)
		}
	}
	if got := s.Mem.Peek(prog.MustSymbol("counter")); got != iters {
		t.Errorf("counter %d, want %d from the surviving CPU", got, iters)
	}
	if st := s.CPUs[1].Threads()[0].State; st != kernel.StateDone {
		t.Errorf("cpu1 worker state %v, want done", st)
	}
}

// A machine crash in the middle of the hybrid lock's cohort handoff —
// inside the unbias block, after the batch bound fired but before the
// shared word is surrendered — is the worst possible moment: the crashing
// CPU holds the claim, the bias, and the global spinlock word. A
// checkpoint taken at the crash and restored must resume exactly there
// and finish the whole workload with no lost updates.
func TestCrashDuringHybridHandoff(t *testing.T) {
	const iters = 12 // > HybridBatch so the unbias path runs
	build := func(faults func(int) chaos.Injector) (*System, uint32, uint32) {
		s := New(Config{CPUs: 2, Quantum: 5000, Faults: faults})
		prog := guest.Assemble(guest.SMPCounterProgram(guest.SMPHybrid, 2))
		s.Load(prog)
		for cpu := 0; cpu < 2; cpu++ {
			s.Spawn(cpu, prog.MustSymbol("worker"), guest.StackTop(GlobalID(cpu, 0)), isa.Word(iters))
		}
		return s, prog.MustSymbol("unbias"), prog.MustSymbol("counter")
	}

	// Pass 1: find the step ordinal at which CPU0 enters the handoff.
	probe, unbiasPC, _ := build(nil)
	at := stepUntilPC(t, probe, 0, unbiasPC)

	// Pass 2: same trajectory, machine crash at that ordinal.
	crashed, unbiasPC, counterAddr := build(func(cpu int) chaos.Injector {
		if cpu == 0 {
			return chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Crash: chaos.CrashClean}}
		}
		return nil
	})
	for done := false; !done; {
		_, done = crashed.StepCPU(0, 1)
	}
	if err := crashed.CPUVerdict(0); !errors.Is(err, kernel.ErrMachineCrash) {
		t.Fatalf("cpu0 verdict %v, want machine crash", err)
	}
	if pc := crashed.CPUs[0].Threads()[0].Ctx.PC; pc != unbiasPC {
		t.Fatalf("crash struck at pc %#x, want the unbias block %#x", pc, unbiasPC)
	}

	// The crash left cohort state dangling mid-handoff; a restore resumes
	// inside the unbias block and must surrender the bias and finish.
	snap := crashed.Capture()
	restored, err := Restore(Config{CPUs: 2, Quantum: 5000}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if got, want := restored.Mem.Peek(counterAddr), uint32(2*iters); got != want {
		t.Errorf("counter %d, want %d after crash+restore", got, want)
	}
}

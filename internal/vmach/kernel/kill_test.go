package kernel

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
)

// An injected kill terminates exactly the running thread; the rest of the
// system keeps going and the run ends cleanly.
func TestInjectedKillTerminatesOneThread(t *testing.T) {
	k, prog := boot(t, Config{
		Quantum: 50,
		Faults:  chaos.OneShot{Point: chaos.PointStep, N: 30, Action: chaos.Action{Kill: true}},
	}, `
main:
	li   t0, 400
spin:
	addi t0, t0, -1
	bgtz t0, spin
	li   v0, 0
	move a0, zero
	syscall
other:
	li   t0, 400
spin2:
	addi t0, t0, -1
	bgtz t0, spin2
	li   v0, 0
	li   a0, 7
	syscall
`)
	k.Spawn(prog.MustSymbol("other"), guest.StackTop(1))
	var events eventLog
	k.Tracer = &events
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	killed := 0
	for _, th := range k.Threads() {
		if th.State == StateKilled {
			killed++
		}
	}
	if killed != 1 || k.Stats.Kills != 1 {
		t.Errorf("killed=%d Stats.Kills=%d, want 1/1", killed, k.Stats.Kills)
	}
	if deaths := events.deaths(); len(deaths) != 2 {
		t.Errorf("traced deaths of %v, want both threads", deaths)
	}
}

// Killing the last runnable thread must end the run cleanly — nothing is
// blocked, so an empty run queue is a shutdown, not a deadlock.
func TestKillLastRunnableThreadIsCleanShutdown(t *testing.T) {
	k, _ := boot(t, Config{
		Faults: chaos.OneShot{Point: chaos.PointStep, N: 10, Action: chaos.Action{Kill: true}},
	}, `
main:
	li   t0, 1000
spin:
	addi t0, t0, -1
	bgtz t0, spin
	li   v0, 0
	move a0, zero
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v, want clean shutdown", err)
	}
	if st := k.Threads()[0].State; st != StateKilled {
		t.Errorf("thread state %v, want killed", st)
	}
}

// Killing a thread whose PC sits exactly on a sequence's committing store:
// the store must never happen (death struck before the instruction
// retired), and the corpse must never be rolled back or resumed.
func TestKillAtCommitStorePC(t *testing.T) {
	k, prog := boot(t, Config{Strategy: &Registration{}}, `
main:
	la   s1, word
	la   a0, seq
	li   a1, 20
	li   v0, 3
	syscall
seq:
	lw   v0, 0(s1)
	ori  t0, zero, 1
	bne  v0, zero, out
	landmark
commit:
	sw   t0, 0(s1)
out:
	li   v0, 0
	move a0, zero
	syscall

	.data
word:
	.word 0
`)
	commitPC := prog.MustSymbol("commit")
	wordAddr := prog.MustSymbol("word")
	for {
		fin, err := k.RunSteps(1)
		if err != nil {
			t.Fatalf("RunSteps: %v", err)
		}
		if fin {
			t.Fatal("program finished before reaching the commit store")
		}
		if cur := k.Current(); cur != nil && cur.Ctx.PC == commitPC {
			if err := k.KillThread(cur.ID); err != nil {
				t.Fatalf("KillThread: %v", err)
			}
			break
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run after kill: %v", err)
	}
	th := k.Threads()[0]
	if th.State != StateKilled {
		t.Fatalf("state %v, want killed", th.State)
	}
	if th.Ctx.PC != commitPC {
		t.Errorf("corpse PC moved to %#x (rolled back or resumed?), want %#x", th.Ctx.PC, commitPC)
	}
	if v := k.M.Mem.Peek(wordAddr); v != 0 {
		t.Errorf("committing store of a killed thread took effect: word=%d", v)
	}
	if th.Restarts != 0 {
		t.Errorf("dead thread was rolled back %d times", th.Restarts)
	}
}

// KillThread covers ready threads too, and rejects double kills and bogus
// IDs.
func TestKillThreadStates(t *testing.T) {
	k, prog := boot(t, Config{Quantum: 25}, `
main:
	li   t0, 300
spin:
	addi t0, t0, -1
	bgtz t0, spin
	li   v0, 0
	move a0, zero
	syscall
other:
	li   t0, 300
spin2:
	addi t0, t0, -1
	bgtz t0, spin2
	li   v0, 0
	move a0, zero
	syscall
`)
	k.Spawn(prog.MustSymbol("other"), guest.StackTop(1))
	// Advance a little so thread 0 runs and thread 1 sits ready.
	if _, err := k.RunSteps(10); err != nil {
		t.Fatalf("RunSteps: %v", err)
	}
	if err := k.KillThread(1); err != nil { // ready-state kill
		t.Fatalf("KillThread(ready): %v", err)
	}
	if err := k.KillThread(1); err == nil {
		t.Error("double kill not rejected")
	}
	if err := k.KillThread(99); err == nil {
		t.Error("bogus ID not rejected")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := k.Threads()[0].State; st != StateDone {
		t.Errorf("survivor state %v", st)
	}
}

// The SysThreadAlive oracle: alive while running, dead after exit, dead
// for IDs naming no thread.
func TestSysThreadAlive(t *testing.T) {
	k, prog := boot(t, Config{Quantum: 40}, `
main:
	li   s0, 1
poll:
	move a0, s0
	li   v0, 10
	syscall
	bne  v0, zero, poll
	li   a0, 99
	li   v0, 10
	syscall
	move a0, v0
	li   v0, 2
	syscall
	li   v0, 0
	move a0, zero
	syscall
child:
	li   t0, 200
spin:
	addi t0, t0, -1
	bgtz t0, spin
	li   v0, 0
	move a0, zero
	syscall
`)
	k.Spawn(prog.MustSymbol("child"), guest.StackTop(1))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The poll loop only exits once the oracle reported the child dead;
	// the console then records the verdict for the unknown ID.
	if len(k.Console) != 1 || k.Console[0] != 0 {
		t.Errorf("console = %v, want [0]", k.Console)
	}
}

// An injected machine crash ends the run with ErrMachineCrash and leaves
// the current thread in place (for checkpointing at the crash point).
func TestInjectedCrashStopsRun(t *testing.T) {
	k, _ := boot(t, Config{
		Faults: chaos.OneShot{Point: chaos.PointStep, N: 25, Action: chaos.Action{Crash: chaos.CrashClean}},
	}, `
main:
	li   t0, 1000
spin:
	addi t0, t0, -1
	bgtz t0, spin
	li   v0, 0
	move a0, zero
	syscall
`)
	err := k.Run()
	if !errors.Is(err, ErrMachineCrash) {
		t.Fatalf("Run = %v, want ErrMachineCrash", err)
	}
	if k.Current() == nil {
		t.Error("crash discarded the running thread; checkpoint-at-crash needs it")
	}
	// The crash is sticky: resuming the kernel reports it again.
	if err2 := k.Run(); !errors.Is(err2, ErrMachineCrash) {
		t.Errorf("second Run = %v", err2)
	}
}

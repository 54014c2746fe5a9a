package kernel

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
)

// boot assembles src, loads it, spawns main at thread-0's stack, and
// returns the kernel (not yet run).
func boot(t testing.TB, cfg Config, src string) (*Kernel, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	k := New(cfg)
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	return k, prog
}

func TestSingleThreadExit(t *testing.T) {
	k, _ := boot(t, Config{}, `
main:
	li  a0, 42
	li  v0, 0
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	th := k.Threads()[0]
	if th.State != StateDone || th.ExitCode != 42 {
		t.Errorf("thread state=%v exit=%d", th.State, th.ExitCode)
	}
}

func TestConsoleWrite(t *testing.T) {
	k, _ := boot(t, Config{}, `
main:
	li  a0, 7
	li  v0, 2
	syscall
	li  a0, 8
	li  v0, 2
	syscall
	li  v0, 0
	move a0, zero
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 2 || k.Console[0] != 7 || k.Console[1] != 8 {
		t.Errorf("console = %v", k.Console)
	}
}

func TestThreadCreateAndInterleaving(t *testing.T) {
	// Main spawns a child; both write their identity in loops. With a tiny
	// quantum the console must contain both values before either finishes.
	k, _ := boot(t, Config{Quantum: 40}, `
main:
	la  a0, child
	li  a1, 0
	li  a2, 0x91FF0
	li  v0, 5
	syscall
	li  s0, 20
mloop:
	li  a0, 1
	li  v0, 2
	syscall
	addi s0, s0, -1
	bne s0, zero, mloop
	li  v0, 0
	move a0, zero
	syscall
child:
	li  s0, 20
cloop:
	li  a0, 2
	li  v0, 2
	syscall
	addi s0, s0, -1
	bne s0, zero, cloop
	li  v0, 0
	move a0, zero
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.Console) != 40 {
		t.Fatalf("console len = %d", len(k.Console))
	}
	// Interleaved: a 2 must appear before the last 1.
	first2, last1 := -1, -1
	for i, v := range k.Console {
		if v == 2 && first2 < 0 {
			first2 = i
		}
		if v == 1 {
			last1 = i
		}
	}
	if first2 < 0 || first2 > last1 {
		t.Errorf("no interleaving observed: first2=%d last1=%d", first2, last1)
	}
	if k.Stats.Preemptions == 0 {
		t.Error("no preemptions with tiny quantum")
	}
}

func TestYieldRotates(t *testing.T) {
	k, _ := boot(t, Config{Quantum: 1 << 30}, `
main:
	la  a0, child
	li  a1, 0
	li  a2, 0x91FF0
	li  v0, 5
	syscall
	li  a0, 1
	li  v0, 2
	syscall
	li  v0, 1
	syscall          # yield: child should run next
	li  a0, 3
	li  v0, 2
	syscall
	li  v0, 0
	move a0, zero
	syscall
child:
	li  a0, 2
	li  v0, 2
	syscall
	li  v0, 0
	move a0, zero
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []isa.Word{1, 2, 3}
	if len(k.Console) != 3 {
		t.Fatalf("console = %v", k.Console)
	}
	for i, w := range want {
		if k.Console[i] != w {
			t.Fatalf("console = %v, want %v", k.Console, want)
		}
	}
}

// runCounter runs the MutexCounter workload and returns final counter value
// and the kernel.
func runCounter(t *testing.T, cfg Config, m guest.Mechanism, workers, iters int) (uint32, *Kernel) {
	t.Helper()
	src := guest.MutexCounterProgram(m, workers, iters)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble %v: %v", m, err)
	}
	k := New(cfg)
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatalf("run %v: %v", m, err)
	}
	return k.M.Mem.Peek(prog.MustSymbol("counter")), k
}

func TestMutexCounterRegistered(t *testing.T) {
	const workers, iters = 3, 150
	got, k := runCounter(t, Config{Strategy: &Registration{}, Quantum: 53},
		guest.MechRegistered, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.Stats.Restarts == 0 {
		t.Error("expected some RAS restarts under a 53-cycle quantum")
	}
	if k.Stats.Suspensions == 0 {
		t.Error("no suspensions recorded")
	}
	t.Logf("registered: %d suspensions, %d restarts", k.Stats.Suspensions, k.Stats.Restarts)
}

func TestMutexCounterDesignated(t *testing.T) {
	const workers, iters = 3, 150
	got, k := runCounter(t, Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 53},
		guest.MechDesignated, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.Stats.Restarts == 0 {
		t.Error("expected designated-sequence restarts")
	}
	if k.Stats.CheckRejects == 0 {
		t.Error("expected stage-1/2 rejects for suspensions outside sequences")
	}
}

func TestMutexCounterUnsoundWithoutRecovery(t *testing.T) {
	// The same registered-TAS code, but on a kernel with no recovery
	// strategy: some quantum must produce a lost update. This is the
	// failure the paper's mechanism exists to prevent.
	const workers, iters = 3, 150
	lost := false
	for q := uint64(31); q <= 71 && !lost; q += 2 {
		got, _ := runCounter(t, Config{Strategy: NoRecovery{}, Quantum: q},
			guest.MechNone, workers, iters)
		if got < workers*iters {
			lost = true
		}
		if got > workers*iters {
			t.Fatalf("counter overshot: %d", got)
		}
	}
	if !lost {
		t.Error("no lost update observed across quanta; unsound baseline seems sound")
	}
}

func TestMutexCounterEmulation(t *testing.T) {
	const workers, iters = 3, 100
	got, k := runCounter(t, Config{Quantum: 200}, guest.MechEmul, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.Stats.EmulTraps < workers*iters {
		t.Errorf("EmulTraps = %d, want >= %d", k.Stats.EmulTraps, workers*iters)
	}
}

func TestMutexCounterInterlocked(t *testing.T) {
	const workers, iters = 3, 100
	got, k := runCounter(t, Config{Profile: arch.I486(), Quantum: 53},
		guest.MechInterlocked, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.M.Stats.Interlocked < uint64(workers*iters) {
		t.Errorf("interlocked ops = %d", k.M.Stats.Interlocked)
	}
}

func TestMutexCounterUserLevel(t *testing.T) {
	const workers, iters = 3, 150
	got, k := runCounter(t, Config{Strategy: &UserLevel{}, CheckAt: CheckAtResume, Quantum: 53},
		guest.MechUserLevel, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.Stats.Suspensions == 0 {
		t.Error("no suspensions")
	}
}

func TestMutexCounterLockBit(t *testing.T) {
	const workers, iters = 3, 100
	got, k := runCounter(t, Config{Profile: arch.I860(), Quantum: 53},
		guest.MechLockB, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.M.Stats.LockBStarts == 0 {
		t.Error("lockb never executed")
	}
}

func TestLockBitRollbackOnPageFault(t *testing.T) {
	// Force a page fault inside the hardware sequence: the kernel must
	// back the thread up to the lockb instruction.
	src := guest.MutexCounterProgram(guest.MechLockB, 1, 5)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Profile: arch.I860(), Quantum: 1 << 20})
	k.Load(prog)
	k.M.Mem.SetPresent(prog.MustSymbol("lock"), false)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.HardwareResets == 0 {
		t.Error("no hardware lock-bit rollback on page fault")
	}
	if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestMutexCounterLamportA(t *testing.T) {
	const workers, iters = 3, 60
	got, k := runCounter(t, Config{Quantum: 97}, guest.MechLamportA, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.Stats.Preemptions == 0 {
		t.Error("expected preemptions")
	}
}

func TestMutexCounterLamportB(t *testing.T) {
	const workers, iters = 3, 60
	got, _ := runCounter(t, Config{Quantum: 97}, guest.MechLamportB, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
}

// Property: for any quantum, the registered-RAS counter workload is exact.
func TestRegisteredCorrectAcrossQuanta(t *testing.T) {
	const workers, iters = 2, 60
	for q := uint64(23); q <= 307; q += 20 {
		got, _ := runCounter(t, Config{Strategy: &Registration{}, Quantum: q},
			guest.MechRegistered, workers, iters)
		if got != workers*iters {
			t.Errorf("quantum %d: counter = %d, want %d", q, got, workers*iters)
		}
	}
}

func TestDesignatedCorrectAcrossQuanta(t *testing.T) {
	const workers, iters = 2, 60
	for q := uint64(23); q <= 307; q += 20 {
		for _, at := range []CheckTime{CheckAtSuspend, CheckAtResume} {
			got, _ := runCounter(t, Config{Strategy: &Designated{}, CheckAt: at, Quantum: q},
				guest.MechDesignated, workers, iters)
			if got != workers*iters {
				t.Errorf("quantum %d checkAt %v: counter = %d, want %d", q, at, got, workers*iters)
			}
		}
	}
}

func TestRegistrationFallback(t *testing.T) {
	// Registering on a kernel whose strategy is not Registration must fail
	// with -1 so the thread package can fall back (§3.1).
	k, _ := boot(t, Config{Strategy: &Designated{}}, `
main:
	li   v0, 3
	li   a0, 0x2000
	li   a1, 12
	syscall
	move a0, v0        # exit code = registration result
	li   v0, 0
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Threads()[0].ExitCode != ^isa.Word(0) {
		t.Errorf("registration result = %#x, want -1", k.Threads()[0].ExitCode)
	}
}

func TestTimeSyscall(t *testing.T) {
	k, _ := boot(t, Config{}, `
main:
	li  v0, 6
	syscall
	move a0, v0
	li  v0, 0
	syscall
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Threads()[0].ExitCode == 0 {
		t.Error("time syscall returned 0 cycles")
	}
}

func TestBudgetExceeded(t *testing.T) {
	k, _ := boot(t, Config{MaxCycles: 5000}, `
main:
	b main
`)
	if err := k.Run(); err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestBadSyscallFaults(t *testing.T) {
	k, _ := boot(t, Config{}, `
main:
	li  v0, 99
	syscall
`)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Errorf("err = %v, want fault", err)
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	k, _ := boot(t, Config{}, `
main:
	tas v0, 0(a0)     # illegal on the R3000
`)
	if err := k.Run(); err == nil {
		t.Error("expected fault error")
	}
	if k.Threads()[0].State != StateFaulted {
		t.Errorf("state = %v", k.Threads()[0].State)
	}
}

func TestDemandPagingOnCode(t *testing.T) {
	// Mark the text page not-present: the first fetch faults, the kernel
	// services it (charging the fault cost), and execution proceeds.
	k, prog := boot(t, Config{Strategy: &Designated{}, CheckAt: CheckAtResume}, `
main:
	li  a0, 11
	li  v0, 0
	syscall
`)
	k.M.Mem.SetPresent(prog.TextBase, false)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Threads()[0].ExitCode != 11 {
		t.Errorf("exit = %d", k.Threads()[0].ExitCode)
	}
	if k.Stats.PageFaults == 0 {
		t.Error("no page fault recorded")
	}
	if k.Stats.Suspensions == 0 {
		t.Error("page fault should suspend the thread")
	}
}

func TestDesignatedCheckCanPageFault(t *testing.T) {
	// Arrange for the PC check itself to fault: run with a quantum that
	// forces a preemption, then evict the text page before the check runs.
	// We emulate this by evicting text pages after every page-in via the
	// CheckAtResume policy and a not-present landmark page. Simplest
	// deterministic variant: text spans two pages; the landmark probe can
	// cross into an evicted page. Here we settle for exercising the
	// fault-return path directly.
	k := New(Config{Strategy: &Designated{}})
	prog, err := asm.Assemble(`
main:
	lw   v0, 0(s1)
	ori  t0, zero, 1
	bne  v0, zero, slow
	landmark
	sw   t0, 0(s1)
slow:
	jr ra
`)
	if err != nil {
		t.Fatal(err)
	}
	k.Load(prog)
	th := &Thread{}
	th.Ctx.PC = prog.TextBase + 4 // suspended at the ori
	k.M.Mem.SetPresent(prog.TextBase, false)
	res := k.Strategy.Check(k, th)
	if res.Fault == nil {
		t.Fatal("check did not report the page fault")
	}
	// Kernel path: runCheck services the fault and retries.
	k.runCheck(th)
	if th.Ctx.PC != prog.TextBase {
		t.Errorf("pc = %#x, want rollback to %#x", th.Ctx.PC, prog.TextBase)
	}
	if th.Restarts != 1 {
		t.Errorf("restarts = %d", th.Restarts)
	}
}

func TestDesignatedRejectsLookalikes(t *testing.T) {
	// A suspended lw NOT followed by a landmark at +3 must not be touched.
	k := New(Config{Strategy: &Designated{}})
	prog, err := asm.Assemble(`
main:
	lw   v0, 0(s1)
	addi t0, t0, 1
	addi t0, t0, 2
	addi t0, t0, 3
	jr   ra
`)
	if err != nil {
		t.Fatal(err)
	}
	k.Load(prog)
	th := &Thread{}
	th.Ctx.PC = prog.TextBase // at the lw
	res := k.Strategy.Check(k, th)
	if res.Restarted {
		t.Error("lookalike sequence restarted")
	}
	if th.Ctx.PC != prog.TextBase {
		t.Error("pc moved")
	}
}

func TestDesignatedRollbackPositions(t *testing.T) {
	// Each position within the canonical sequence must roll back to the
	// start, except position 0 (nothing executed yet).
	k := New(Config{Strategy: &Designated{}})
	prog, err := asm.Assemble(`
seq:
	lw   v0, 0(s1)
	ori  t0, zero, 1
	bne  v0, zero, slow
	landmark
	sw   t0, 0(s1)
slow:
	jr   ra
`)
	if err != nil {
		t.Fatal(err)
	}
	k.Load(prog)
	start := prog.MustSymbol("seq")
	for idx := 0; idx <= 5; idx++ {
		th := &Thread{}
		th.Ctx.PC = start + uint32(idx*4)
		res := k.Strategy.Check(k, th)
		wantRestart := idx >= 1 && idx <= 4
		if res.Restarted != wantRestart {
			t.Errorf("index %d: restarted = %v, want %v", idx, res.Restarted, wantRestart)
		}
		if wantRestart && th.Ctx.PC != start {
			t.Errorf("index %d: pc = %#x, want %#x", idx, th.Ctx.PC, start)
		}
		if !wantRestart && th.Ctx.PC != start+uint32(idx*4) {
			t.Errorf("index %d: pc moved without restart", idx)
		}
	}
}

func TestRegistrationRollbackBounds(t *testing.T) {
	k := New(Config{Strategy: &Registration{}})
	k.setRas(0, 0x1000, 12)
	cases := []struct {
		pc      uint32
		restart bool
		wantPC  uint32
	}{
		{0x0FFC, false, 0x0FFC}, // before
		{0x1000, false, 0x1000}, // at start: nothing executed
		{0x1004, true, 0x1000},  // inside
		{0x1008, true, 0x1000},  // inside (the store not yet executed)
		{0x100C, false, 0x100C}, // just past the store: committed
	}
	for _, c := range cases {
		th := &Thread{}
		th.Ctx.PC = c.pc
		res := k.Strategy.Check(k, th)
		if res.Restarted != c.restart || th.Ctx.PC != c.wantPC {
			t.Errorf("pc %#x: restarted=%v pc=%#x, want %v %#x",
				c.pc, res.Restarted, th.Ctx.PC, c.restart, c.wantPC)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{NoRecovery{}, &Registration{}, &Designated{}, &UserLevel{}} {
		if s.Name() == "" {
			t.Errorf("%T: empty name", s)
		}
	}
}

func TestThreadStateString(t *testing.T) {
	for _, s := range []ThreadState{StateReady, StateRunning, StateDone, StateFaulted} {
		if s.String() == "" || s.String() == "unknown" {
			t.Errorf("state %d: bad string %q", s, s.String())
		}
	}
}

// Restart counts must be small relative to atomic operations (§5.3:
// "restartable atomic sequences are almost never interrupted").
func TestRestartsAreRare(t *testing.T) {
	const workers, iters = 3, 300
	_, k := runCounter(t, Config{Strategy: &Registration{}, Quantum: 10000},
		guest.MechRegistered, workers, iters)
	atomicOps := uint64(workers * iters)
	if k.Stats.Restarts*20 > atomicOps {
		t.Errorf("restarts %d not rare vs %d atomic ops", k.Stats.Restarts, atomicOps)
	}
}

func TestKernelEmulationCostsMoreCycles(t *testing.T) {
	const workers, iters = 2, 100
	_, kras := runCounter(t, Config{Strategy: &Registration{}, Quantum: 10000},
		guest.MechRegistered, workers, iters)
	_, kemu := runCounter(t, Config{Quantum: 10000}, guest.MechEmul, workers, iters)
	if kemu.M.Stats.Cycles <= kras.M.Stats.Cycles {
		t.Errorf("emulation (%d cycles) not slower than RAS (%d cycles)",
			kemu.M.Stats.Cycles, kras.M.Stats.Cycles)
	}
}

func TestMicros(t *testing.T) {
	k := New(Config{})
	k.M.Stats.Cycles = 50
	if got := k.Micros(); got != 2.0 {
		t.Errorf("Micros = %v, want 2.0 on 25 MHz", got)
	}
}

// evictEvery evicts the suspended thread's code page on every nth
// involuntary suspension, so a PC check reading the instruction stream
// must itself take a page fault.
func evictEvery(n uint64) chaos.Injector {
	return injectorFunc(func(p chaos.Point, k uint64) chaos.Action {
		return chaos.Action{EvictCode: p == chaos.PointSuspend && k%n == 0}
	})
}

// Failure injection: evicting the suspended thread's code page forces the
// designated-sequence check itself to page-fault (§4.1); the kernel must
// service the fault, retry the check, and preserve atomicity.
func TestEvictionInjectionDesignated(t *testing.T) {
	const workers, iters = 3, 120
	for _, at := range []CheckTime{CheckAtSuspend, CheckAtResume} {
		src := guest.MutexCounterProgram(guest.MechDesignated, workers, iters)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		k := New(Config{Strategy: &Designated{}, CheckAt: at, Quantum: 211, Faults: evictEvery(3), MaxCycles: 50_000_000})
		k.Load(prog)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		if err := k.Run(); err != nil {
			t.Fatalf("checkAt=%v: %v", at, err)
		}
		if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got != workers*iters {
			t.Errorf("checkAt=%v: counter = %d, want %d", at, got, workers*iters)
		}
		if k.Stats.PageFaults == 0 {
			t.Errorf("checkAt=%v: eviction injected no page faults", at)
		}
		if k.Stats.Restarts == 0 {
			t.Errorf("checkAt=%v: no restarts", at)
		}
	}
}

// The same injection against every recovery strategy: correctness must
// survive arbitrary page-fault placement.
func TestEvictionInjectionAllStrategies(t *testing.T) {
	const workers, iters = 2, 500
	cases := []struct {
		mech  guest.Mechanism
		strat Strategy
		at    CheckTime
	}{
		{guest.MechRegistered, &Registration{}, CheckAtSuspend},
		{guest.MechDesignated, &Designated{}, CheckAtResume},
		{guest.MechUserLevel, &UserLevel{}, CheckAtResume},
		{guest.MechEmul, NoRecovery{}, CheckAtSuspend},
	}
	for _, c := range cases {
		src := guest.MutexCounterProgram(c.mech, workers, iters)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		// A roomy quantum keeps the user-level trampoline overhead from
		// swamping guest progress (vectoring every resume through guest
		// code is expensive — §4.1's point).
		k := New(Config{Strategy: c.strat, CheckAt: c.at, Quantum: 1500, Faults: evictEvery(2), MaxCycles: 50_000_000})
		k.Load(prog)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		if err := k.Run(); err != nil {
			t.Fatalf("%v: %v", c.mech, err)
		}
		if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got != workers*iters {
			t.Errorf("%v: counter = %d, want %d", c.mech, got, workers*iters)
		}
		if k.Stats.PageFaults == 0 {
			t.Errorf("%v: no injected faults", c.mech)
		}
	}
}

// Two address spaces can each register their own (single) sequence; a
// thread's check consults only its own space's registration (§3.1).
func TestPerAddressSpaceRegistration(t *testing.T) {
	// Two copies of the counter workload at different addresses would need
	// a linker; instead verify the kernel-side semantics directly.
	k := New(Config{Strategy: &Registration{}})
	k.setRas(0, 0x1000, 12)
	k.setRas(1, 0x2000, 12)

	tA := &Thread{ThreadImage: ThreadImage{AS: 0}}
	tA.Ctx.PC = 0x1004
	if res := k.Strategy.Check(k, tA); !res.Restarted || tA.Ctx.PC != 0x1000 {
		t.Errorf("AS0 thread not rolled back: %+v pc=%#x", res, tA.Ctx.PC)
	}

	tB := &Thread{ThreadImage: ThreadImage{AS: 1}}
	tB.Ctx.PC = 0x1004 // inside AS0's sequence, but tB is in AS1
	if res := k.Strategy.Check(k, tB); res.Restarted {
		t.Error("AS1 thread rolled back by AS0's registration")
	}
	tB.Ctx.PC = 0x2008
	if res := k.Strategy.Check(k, tB); !res.Restarted || tB.Ctx.PC != 0x2000 {
		t.Errorf("AS1 thread not rolled back by its own registration")
	}
}

// Re-registration replaces the address space's sequence ("only one
// restartable atomic sequence at a time", §3.1).
func TestReRegistrationReplaces(t *testing.T) {
	k, prog := boot(t, Config{Strategy: &Registration{}}, `
main:
	li   v0, 3
	la   a0, seqA
	li   a1, 12
	syscall
	li   v0, 3
	la   a0, seqB
	li   a1, 12
	syscall
	li   v0, 0
	move a0, zero
	syscall
seqA:
	lw   t0, 0(s1)
	ori  t0, t0, 1
	sw   t0, 0(s1)
seqB:
	lw   t0, 0(s1)
	ori  t0, t0, 1
	sw   t0, 0(s1)
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if i, ok := k.rasEntry(0); !ok || k.ras[i].Start != prog.MustSymbol("seqB") {
		t.Errorf("registrations = %+v, want space 0 replaced at seqB", k.ras)
	}
	if len(k.ras) != 1 {
		t.Errorf("spaces = %d", len(k.ras))
	}
}

// Threads created with SysThreadCreate inherit the parent's address space.
func TestThreadCreateInheritsAS(t *testing.T) {
	k := New(Config{})
	prog := guest.Assemble(`
main:
	la  a0, child
	li  a1, 0
	li  a2, 0x91FF0
	li  v0, 5
	syscall
	li  v0, 0
	move a0, zero
	syscall
child:
	li  v0, 0
	move a0, zero
	syscall
`)
	k.Load(prog)
	k.SpawnAS(7, prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ths := k.Threads()
	if len(ths) != 2 || ths[0].AS != 7 || ths[1].AS != 7 {
		t.Errorf("address spaces: %d, %d", ths[0].AS, ths[1].AS)
	}
}

func TestSpawnExtraArgsIgnored(t *testing.T) {
	k := New(Config{})
	prog := guest.Assemble("main:\n\tmove a0, a2\n\tli v0, 0\n\tsyscall\n")
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0), 1, 2, 3, 4, 5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Threads()[0].ExitCode != 3 {
		t.Errorf("a2 = %d, want 3", k.Threads()[0].ExitCode)
	}
}

func TestMultiRegistrationSyscallAppends(t *testing.T) {
	strat := NewMultiRegistration()
	k := New(Config{Strategy: strat})
	prog := guest.Assemble(`
main:
	li  v0, 3
	la  a0, seqA
	li  a1, 12
	syscall
	li  v0, 3
	la  a0, seqB
	li  a1, 12
	syscall
	move a0, v0
	li  v0, 0
	syscall
seqA:
	lw   t0, 0(s1)
	ori  t0, t0, 1
	sw   t0, 0(s1)
seqB:
	lw   t0, 0(s1)
	ori  t0, t0, 1
	sw   t0, 0(s1)
`)
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Threads()[0].ExitCode != 0 {
		t.Error("registration syscall failed")
	}
	if len(strat.ranges) != 2 {
		t.Errorf("ranges = %d, want 2 (appended, not replaced)", len(strat.ranges))
	}
	if strat.Name() == "" || strat.CanReject() {
		t.Error("strategy metadata wrong")
	}
}

func TestEmulTasOnEvictedPage(t *testing.T) {
	// The kernel-emulated TAS must service a page fault on the lock word.
	src := guest.MutexCounterProgram(guest.MechEmul, 1, 10)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Quantum: 1 << 20})
	k.Load(prog)
	k.M.Mem.SetPresent(prog.MustSymbol("lock"), false)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got != 10 {
		t.Errorf("counter = %d", got)
	}
	if k.Stats.PageFaults == 0 {
		t.Error("no page fault serviced inside the emulation trap")
	}
}

func TestRegistrationWithCheckAtResume(t *testing.T) {
	// Mach checks at suspend, but the registration strategy must also be
	// correct under resume-time checking.
	const workers, iters = 3, 120
	got, k := runCounter(t, Config{Strategy: &Registration{}, CheckAt: CheckAtResume, Quantum: 53},
		guest.MechRegistered, workers, iters)
	if got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if k.Stats.Restarts == 0 {
		t.Error("no restarts")
	}
}

// The complete Taos mutex (§3.2, Figure 5): designated acquire whose slow
// path blocks in the kernel, and designated Test-And-Clear release whose
// slow path hands the mutex to a waiter.
func TestTaosMutexCounter(t *testing.T) {
	const workers, iters = 4, 150
	for _, q := range []uint64{53, 211, 1500} {
		got, k := runCounter(t, Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: q},
			guest.MechTaosMutex, workers, iters)
		if got != workers*iters {
			t.Errorf("q=%d: counter = %d, want %d", q, got, workers*iters)
		}
		if k.Stats.SlowAcquires == 0 {
			t.Errorf("q=%d: slow path never taken under contention", q)
		}
		if k.Stats.MutexWakes == 0 {
			t.Errorf("q=%d: no kernel handoffs", q)
		}
		if q == 53 && k.Stats.Restarts == 0 {
			t.Errorf("q=%d: no designated restarts", q)
		}
	}
}

// The release rollback is the subtle case: a waiter can arrive between the
// release sequence's load and its store; the rollback re-reads the word,
// sees the waiters bit, and diverts to the kernel handoff. If that logic
// were broken, a waiter would sleep forever and the run would deadlock.
func TestTaosMutexNoLostWakeups(t *testing.T) {
	for q := uint64(31); q <= 151; q += 8 {
		got, _ := runCounter(t, Config{Strategy: &Designated{}, CheckAt: CheckAtResume,
			Quantum: q, MaxCycles: 100_000_000}, guest.MechTaosMutex, 3, 100)
		if got != 300 {
			t.Errorf("q=%d: counter = %d, want 300", q, got)
		}
	}
}

// A thread that blocks on a mutex nobody releases is a deadlock the kernel
// must report rather than hang on.
func TestMutexDeadlockDetected(t *testing.T) {
	k, _ := boot(t, Config{}, `
main:
	la   a0, m
	li   t0, 0x80000000
	lui  t0, 0x8000
	sw   t0, 0(a0)      # lock it, nobody will release
	li   v0, 8          # SysMutexSlow: blocks forever
	syscall
	.data
m:	.word 0
`)
	if err := k.Run(); err != ErrDeadlock {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

// SysMutexWake with no waiters simply clears the word.
func TestMutexWakeWithoutWaiters(t *testing.T) {
	k, prog := boot(t, Config{}, `
main:
	la   a0, m
	li   v0, 9
	syscall
	li   v0, 0
	move a0, zero
	syscall
	.data
m:	.word 0x80000001
`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.M.Mem.Peek(prog.MustSymbol("m")); got != 0 {
		t.Errorf("mutex word = %#x, want 0", got)
	}
}

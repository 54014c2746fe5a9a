package kernel

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
)

// persistMem returns a fresh memory with the two-tier persistence model on.
func persistMem() *vmach.Memory {
	m := vmach.NewMemory()
	m.EnablePersistence()
	return m
}

// persistConfig is PersistConfig over mem under faults, unbudgeted.
func persistConfig(mem *vmach.Memory, faults chaos.Injector) Config {
	cfg := PersistConfig(0)
	cfg.Memory, cfg.Faults = mem, faults
	return cfg
}

// TestCrashIsFullyPersistent pins the clean-crash contract of
// chaos.CrashClean: every committed store survives the halt — even on a
// memory with the persistence model enabled, and even though nothing was
// ever flushed. A volatile crash on the same schedule is the contrast:
// the unflushed counter reverts to its NVM image. On a persistent memory
// the clean crash makes the volatile tier durable (eADR), so a volatile
// or torn crash in the next life reverts nothing it kept.
func TestCrashIsFullyPersistent(t *testing.T) {
	const crashAt = 2000
	run := func(act chaos.Action) (counter isa.Word, increments int) {
		mem := persistMem()
		k, prog := boot(t, persistConfig(mem, chaos.OneShot{
			Point: chaos.PointStep, N: crashAt, Action: act,
		}), guest.RecoverableCounterProgram(2, 50))
		counterAddr := prog.MustSymbol("counter")
		mem.Watch(counterAddr, func(old, new isa.Word) { increments++ })
		if err := k.Run(); !errors.Is(err, ErrMachineCrash) {
			t.Fatalf("Run = %v, want ErrMachineCrash", err)
		}
		return mem.Peek(counterAddr), increments
	}

	c, r := run(chaos.Action{Crash: chaos.CrashClean})
	if r == 0 {
		t.Fatal("crash fired before any increment; pick a later step")
	}
	if int(c) != r {
		t.Errorf("clean crash lost stores: counter=%d, %d increments committed", c, r)
	}

	cv, rv := run(chaos.Action{Crash: chaos.CrashVolatile})
	if rv != r {
		t.Fatalf("schedules diverged: %d vs %d increments", rv, r)
	}
	if cv != 0 {
		t.Errorf("volatile crash kept an unflushed counter: %d, want 0 (NVM image)", cv)
	}

	for _, second := range []chaos.CrashKind{chaos.CrashVolatile, chaos.CrashTorn} {
		l := Lives{Prog: guest.Assemble(guest.RecoverableCounterProgram(2, 50)),
			StackTop: guest.StackTop(0), Config: PersistConfig(0)}
		crash := func(kind chaos.CrashKind, at uint64) {
			k := l.Boot(chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Crash: kind}})
			if err := l.Run(k); !errors.Is(err, ErrMachineCrash) {
				t.Fatalf("Run = %v, want ErrMachineCrash", err)
			}
		}
		crash(chaos.CrashClean, crashAt)
		mem := l.Memory()
		counterAddr := l.Prog.MustSymbol("counter")
		if mem.Peek(counterAddr) == 0 {
			t.Fatal("clean crash fired before any increment; pick a later step")
		}
		if mem.NVPeek(counterAddr) != mem.Peek(counterAddr) || mem.DirtyLines() != nil {
			t.Errorf("after a clean crash NVM differs from memory (dirty lines %v)", mem.DirtyLines())
		}
		// The warm boot's first instruction stores nothing, so a crash
		// there must leave memory exactly as the clean crash did.
		kept := mem.Digest()
		crash(second, 1)
		if mem.Digest() != kept {
			t.Errorf("a crash of kind %d after a clean one reverted memory the clean crash kept", second)
		}
	}
}

// On a memory without the persistence model, a volatile or torn crash
// degrades to a clean one: there is no volatile tier to lose, committed
// stores survive, and
// the kernel announces the downgrade with a crash-degraded trace event so
// a schedule reader can tell it did not get the semantics it asked for.
// On a persistent memory the same schedule must stay silent.
func TestCrashVolatileDegradesToCrashOnPlainMemory(t *testing.T) {
	run := func(mem *vmach.Memory) (k *Kernel, prog *asm.Program, degraded int) {
		ring := obs.NewRing(4096)
		k, prog = boot(t, Config{
			Strategy: &Designated{},
			CheckAt:  CheckAtResume,
			Memory:   mem,
			Faults: chaos.OneShot{
				Point: chaos.PointStep, N: 2000,
				Action: chaos.Action{Crash: chaos.CrashTorn},
			},
		}, guest.RecoverableCounterProgram(2, 50))
		k.Tracer = ring
		if err := k.Run(); !errors.Is(err, ErrMachineCrash) {
			t.Fatalf("Run = %v, want ErrMachineCrash", err)
		}
		for _, ev := range ring.Events() {
			if ev.Type == obs.KindCrashDegraded {
				degraded++
			}
		}
		return k, prog, degraded
	}

	k, prog, degraded := run(nil) // nil Memory: plain, no persistence model
	if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got == 0 {
		t.Error("torn crash on plain memory lost committed stores")
	}
	if degraded != 1 {
		t.Errorf("crash-degraded events on plain memory = %d, want exactly 1", degraded)
	}

	if _, _, degraded := run(persistMem()); degraded != 0 {
		t.Errorf("crash-degraded events on persistent memory = %d, want 0", degraded)
	}
}

// crashThenReboot runs a persistent counter program until an injected
// volatile crash, then boots a fresh kernel over the surviving memory and
// runs the same program (whose main repairs the lock before spawning
// workers). It returns the NVM counter at the crash (C0), the number of
// increments committed before it, and the rebooted kernel + program.
func crashThenReboot(t *testing.T, src string, faults chaos.Injector) (c0 isa.Word, incrs int, k2 *Kernel, prog2 *program) {
	t.Helper()
	mem := persistMem()
	k, prog := boot(t, persistConfig(mem, faults), src)
	counterAddr := prog.MustSymbol("counter")
	mem.Watch(counterAddr, func(old, new isa.Word) { incrs++ })
	if err := k.Run(); !errors.Is(err, ErrMachineCrash) {
		t.Fatalf("phase 1: Run = %v, want ErrMachineCrash", err)
	}
	// The injected volatile crash already discarded the volatile tier: what
	// memory holds now is NVM contents only.
	c0 = mem.Peek(counterAddr)
	k2 = New(persistConfig(mem, nil))
	// No Load on reboot: the program image is already durable in NVM, and
	// reloading would also reset the very data words recovery must read.
	k2.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	return c0, incrs, k2, &program{prog.MustSymbol("counter"), prog.MustSymbol("lock"), prog.MustSymbol("repairs")}
}

type program struct{ counter, lock, repairs uint32 }

// calibrateSteps runs src uninjected and returns its PointStep count.
func calibrateSteps(t *testing.T, src string) uint64 {
	t.Helper()
	k, _ := boot(t, persistConfig(persistMem(), nil), src)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Steps() == 0 {
		t.Fatal("calibration run offered no injection points")
	}
	return k.Steps()
}

// The well-flushed protocol: a volatile crash loses at most the latest
// increment (P2 fences each one), and rebooting the same binary repairs
// the lock and completes a full workload on top of the surviving counter.
func TestPersistentCounterCrashRecovery(t *testing.T) {
	const workers, iters = 2, 3
	total := calibrateSteps(t, guest.PersistentCounterProgram(workers, iters))
	for _, crashAt := range []uint64{total / 8, total / 3, total / 2, total - 5} {
		if crashAt == 0 {
			crashAt = 1
		}
		c0, incrs, k2, sym := crashThenReboot(t,
			guest.PersistentCounterProgram(workers, iters),
			chaos.OneShot{Point: chaos.PointStep, N: crashAt, Action: chaos.Action{Crash: chaos.CrashVolatile}})
		if int(c0) < incrs-1 {
			t.Errorf("crash@%d: NVM counter %d but %d increments committed; protocol lost more than one",
				crashAt, c0, incrs)
		}
		if err := k2.Run(); err != nil {
			t.Fatalf("crash@%d: reboot run: %v", crashAt, err)
		}
		want := c0 + workers*iters
		if got := k2.M.Mem.Peek(sym.counter); got != want {
			t.Errorf("crash@%d: counter after reboot = %d, want %d (C0=%d + %d new)",
				crashAt, got, want, c0, workers*iters)
		}
		if held := guest.HeldLock(k2.M.Mem.Peek(sym.lock)); held != "" {
			t.Errorf("crash@%d: %s after clean reboot", crashAt, held)
		}
	}
}

// The deliberately under-flushed variant: increments pile up in the
// volatile tier, so a late crash loses more than one — the violation the
// model checker's persist-underflush entry exists to catch.
func TestUnderflushedCounterLosesIncrements(t *testing.T) {
	incrs := 0
	fired := false
	inj := injectorFunc(func(p chaos.Point, n uint64) chaos.Action {
		if p == chaos.PointStep && !fired && incrs >= 3 {
			fired = true
			return chaos.Action{Crash: chaos.CrashVolatile}
		}
		return chaos.Action{}
	})
	mem := persistMem()
	k, prog := boot(t, persistConfig(mem, inj), guest.UnderflushedCounterProgram(1, 6))
	mem.Watch(prog.MustSymbol("counter"), func(old, new isa.Word) { incrs++ })
	if err := k.Run(); !errors.Is(err, ErrMachineCrash) {
		t.Fatalf("Run = %v, want ErrMachineCrash", err)
	}
	c0 := mem.Peek(prog.MustSymbol("counter"))
	if int(c0) >= incrs-1 {
		t.Errorf("under-flushed variant kept its counter (NVM %d of %d increments); the planted bug is gone",
			c0, incrs)
	}
}

type injectorFunc func(chaos.Point, uint64) chaos.Action

func (f injectorFunc) At(p chaos.Point, n uint64) chaos.Action { return f(p, n) }

// Next gives no hint: f may be stateful, so every ordinal is consulted.
func (f injectorFunc) Next(_ chaos.Point, n uint64) uint64 { return n }

// Satellite: a kill racing the persistent mutex's release path. The sweep
// kills the running thread at every step of a short run — covering every
// instruction of release (owner-clearing store, flush, fence) — and at
// each schedule demands: the kernel survives, every counter store is an
// increment-by-one taken with the lock held, and the surviving worker's
// iterations all land (orphaned locks are stolen, so one kill never
// strands the counter).
func TestPersistentReleasePathKillSweep(t *testing.T) {
	const workers, iters = 2, 2
	src := guest.PersistentCounterProgram(workers, iters)

	total := calibrateSteps(t, src) // bounds the sweep
	for at := uint64(1); at <= total; at++ {
		mem := persistMem()
		k, prog := boot(t, persistConfig(mem, chaos.OneShot{
			Point: chaos.PointStep, N: at, Action: chaos.Action{Kill: true},
		}), src)
		counterAddr := prog.MustSymbol("counter")
		lockAddr := prog.MustSymbol("lock")
		violations := 0
		incrs := 0
		mem.Watch(counterAddr, func(old, new isa.Word) {
			incrs++
			if new != old+1 {
				violations++
			}
			if mem.Peek(lockAddr)&0xFFFF == 0 {
				violations++ // increment outside the critical section
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("kill@%d: %v", at, err)
		}
		if violations != 0 {
			t.Fatalf("kill@%d: %d mutual-exclusion violations", at, violations)
		}
		if got := int(mem.Peek(counterAddr)); got != incrs {
			t.Fatalf("kill@%d: counter %d but %d increments observed", at, got, incrs)
		}
		// No stuck acquirer: a stranded lock would leave a worker yielding
		// forever (ending the run in ErrBudget, caught above) or a thread in
		// a non-terminal state here.
		for _, th := range k.Threads() {
			if th.State != StateDone && th.State != StateKilled {
				t.Fatalf("kill@%d: thread %d finished in state %v", at, th.ID, th.State)
			}
		}
		if k.Stats.Kills != 1 {
			t.Fatalf("kill@%d: Kills = %d, want exactly 1", at, k.Stats.Kills)
		}
	}
	if testing.Verbose() {
		fmt.Printf("kill sweep covered %d schedules\n", total)
	}
}

package rseq

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// SMP-substrate coverage for the per-CPU primitives. The Go-level
// PerCPUCounter and CmpEqvStorev in this package run on the virtual
// uniprocessor; their ISA twins (perCPUCounterProgram and
// perCPUCASProgram) run the same sequences as registered guest code on
// the N-CPU machine. These tests drive the twins under seeded
// chaos plans — forced preemptions, page evictions, timeslice jitter,
// injected per CPU — and demand exact counts: every interrupted sequence
// must restart, on the right CPU, with no cross-CPU rollback.

// chaosSMP builds an N-CPU system with a full-strength chaos plan on
// every CPU (each seeded independently, as the chaos kernel does).
func chaosSMP(cpus int, seed uint64) *smp.System {
	return smp.New(smp.Config{
		CPUs:        cpus,
		NewStrategy: kernel.MultiRegistrationStrategy,
		Faults: func(cpu int) chaos.Injector {
			return chaos.NewPlan(chaos.Derive(seed, uint64(cpu)), 1.0)
		},
	})
}

// perCPUCounterProgram is the sharded-counter twin of PerCPUCounter on
// real CPUs: each worker increments its own CPU's slot (one line per
// CPU, symbol "slots") with the registered restartable sequence
// cnt_seq..cnt_end — no interlocked instruction, and exact under
// preemption and eviction chaos because every interrupted sequence
// restarts. a0 = increments.
func perCPUCounterProgram(cpus int) string {
	return fmt.Sprintf(`	.text
worker:                         # a0 = increments
	move s0, a0
	li   v0, 11             # SysCPU
	syscall
	sll  t0, v0, 6          # slot lines are 64 bytes apart
	la   s1, slots
	add  s1, s1, t0
cloop:
cnt_seq:
	lw   v0, 0(s1)          # restartable increment on my CPU's slot
	addi t0, v0, 1
	sw   t0, 0(s1)
cnt_end:
	addi s0, s0, -1
	bne  s0, zero, cloop
	li   v0, 0              # SysExit
	move a0, zero
	syscall

	.data
slots:	.space %d
`, 64*max(cpus, 1))
}

// perCPUCASProgram is the guest twin of CmpEqvStorev, run per CPU:
// workers on one CPU contend on that CPU's slot with a registered
// compare-and-store sequence (cas_seq..cas_end), retrying on comparison
// failure. The final slot values must sum to the total increments. a0 =
// increments.
func perCPUCASProgram(cpus int) string {
	return fmt.Sprintf(`	.text
worker:                         # a0 = increments
	move s0, a0
	li   v0, 11             # SysCPU
	syscall
	sll  t0, v0, 6
	la   s1, slots
	add  s1, s1, t0
cloop:
	lw   s2, 0(s1)          # snapshot (plain load)
	addi s3, s2, 1          # desired
cas_seq:
	lw   v0, 0(s1)          # cmpeqv_storev: if *slot == s2 { *slot = s3 }
	bne  v0, s2, cloop      # comparison failed: retry from the snapshot
	sw   s3, 0(s1)
cas_end:
	addi s0, s0, -1
	bne  s0, zero, cloop
	li   v0, 0              # SysExit
	move a0, zero
	syscall

	.data
slots:	.space %d
`, 64*max(cpus, 1))
}

// registerAll installs the program's restartable ranges on every CPU.
func registerAll(t *testing.T, sys *smp.System, ranges [][2]uint32) {
	t.Helper()
	for _, k := range sys.CPUs {
		for _, r := range ranges {
			if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The sharded counter under chaos at 1, 2, and 4 CPUs: workers increment
// their own CPU's slot with the registered sequence, so each slot must
// hold exactly its own CPU's increments — per-CPU exactness, not just a
// correct total — no matter where preemptions and evictions land.
func TestPerCPUCounterChaosSMP(t *testing.T) {
	const workers, iters = 2, 250
	var restarts uint64
	for _, cpus := range []int{1, 2, 4} {
		sys := chaosSMP(cpus, 0xA51C)
		prog := guest.Assemble(perCPUCounterProgram(cpus))
		sys.Load(prog)
		registerAll(t, sys, guest.SequenceRanges(prog, "cnt_seq", "cnt_end"))
		for cpu := 0; cpu < cpus; cpu++ {
			for w := 0; w < workers; w++ {
				sys.Spawn(cpu, prog.MustSymbol("worker"),
					guest.StackTop(smp.GlobalID(cpu, w)), isa.Word(iters))
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("%d CPUs: %v", cpus, err)
		}
		slots := prog.MustSymbol("slots")
		for cpu := 0; cpu < cpus; cpu++ {
			if got := sys.Mem.Peek(slots + uint32(cpu*64)); got != workers*iters {
				t.Errorf("%d CPUs: slot %d = %d, want %d", cpus, cpu, got, workers*iters)
			}
		}
		restarts += sys.TotalRestarts()
	}
	if restarts == 0 {
		t.Error("full-strength chaos never restarted a sequence — the plans are not biting")
	}
}

// The per-CPU compare-and-store under chaos: workers on one CPU contend
// on that CPU's slot through snapshot/CAS retry loops. A preemption
// inside cas_seq restarts it; a preemption between snapshot and sequence
// fails the comparison and retries. Either way the slot totals are exact.
func TestPerCPUCASChaosSMP(t *testing.T) {
	const workers, iters = 3, 150
	for _, cpus := range []int{1, 2} {
		sys := chaosSMP(cpus, 0xCA5)
		prog := guest.Assemble(perCPUCASProgram(cpus))
		sys.Load(prog)
		registerAll(t, sys, guest.SequenceRanges(prog, "cas_seq", "cas_end"))
		for cpu := 0; cpu < cpus; cpu++ {
			for w := 0; w < workers; w++ {
				sys.Spawn(cpu, prog.MustSymbol("worker"),
					guest.StackTop(smp.GlobalID(cpu, w)), isa.Word(iters))
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("%d CPUs: %v", cpus, err)
		}
		slots := prog.MustSymbol("slots")
		var sum uint64
		for cpu := 0; cpu < cpus; cpu++ {
			got := uint64(sys.Mem.Peek(slots + uint32(cpu*64)))
			if got != workers*iters {
				t.Errorf("%d CPUs: slot %d = %d, want %d", cpus, cpu, got, workers*iters)
			}
			sum += got
		}
		if want := uint64(cpus * workers * iters); sum != want {
			t.Errorf("%d CPUs: sum = %d, want %d", cpus, sum, want)
		}
	}
}

// The runtime-layer primitives under the same chaos shape: the Go-level
// PerCPUCounter and a CmpEqvStorev retry loop on the virtual
// uniprocessor with a seeded plan injecting preemptions and evictions at
// every point. This closes the loop with the guest tests above: same
// primitives, same fault model, both substrates exact.
func TestRuntimePrimitivesChaosUniproc(t *testing.T) {
	const threads, iters = 4, 200
	proc := uniproc.New(uniproc.Config{
		Quantum: 97,
		Faults:  chaos.NewPlan(0xF00D, 1.0),
	})
	var c PerCPUCounter
	var cas Word
	for i := 0; i < threads; i++ {
		proc.Go("worker", func(e *uniproc.Env) {
			for j := 0; j < iters; j++ {
				c.Inc(e)
				for { // CmpEqvStorev retry loop: a lock-free increment
					old := e.Load(&cas)
					if CmpEqvStorev(e, &cas, old, old+1) {
						break
					}
				}
			}
		})
	}
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	check := uniproc.New(uniproc.Config{})
	check.Go("check", func(e *uniproc.Env) {
		if got := c.Sum(e); got != threads*iters {
			t.Errorf("PerCPUCounter sum = %d, want %d", got, threads*iters)
		}
	})
	if err := check.Run(); err != nil {
		t.Fatal(err)
	}
	if cas != threads*iters {
		t.Errorf("CmpEqvStorev counter = %d, want %d", cas, threads*iters)
	}
	if proc.Stats.Restarts == 0 {
		t.Error("chaos plan never restarted a sequence")
	}
}

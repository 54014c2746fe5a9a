package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/smp"
)

// The smp model interleaves whole CPUs: the decision ordinal space counts
// scheduler steps across all CPUs, and an ActSwitch decision hands the
// interleaving to the next unfinished CPU at that ordinal. Between
// decisions the current CPU keeps stepping, up to a fixed fairness
// quantum (smpTurn steps) after which the interleaving rotates on its
// own — without that floor, a schedule that parks the interleaving on a
// CPU spinning for a lock another CPU holds would starve the holder and
// report a fake livelock. The schedule space explored is therefore
// "round-robin at smpTurn granularity plus up to K forced switches at
// arbitrary step ordinals" — a context-bound in the Qadeer–Rehof sense,
// with K the bound.
const smpTurn = 4096

// smpBudget bounds each CPU's cycles; spin-waits burn cycles fast, so
// this is higher than the single-CPU budget.
const smpBudget = uint64(50_000_000)

func smpCounterModel(p map[string]string) (Model, error) {
	var lock guest.SMPLock
	switch p["lock"] {
	case "hybrid":
		lock = guest.SMPHybrid
	case "spinlock":
		lock = guest.SMPSpin
	case "llsc":
		lock = guest.SMPLLSC
	case "ras-only":
		lock = guest.SMPRASOnly
	default:
		return nil, fmt.Errorf("mcheck: smp-counter: unknown lock %q", p["lock"])
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.SMPCounterProgram(lock, cpus))
	if err != nil {
		return nil, fmt.Errorf("mcheck: smp-counter: %v", err)
	}
	counterAddr := prog.MustSymbol("counter")
	want := isa.Word(cpus * iters)
	w := &switchWalkers{build: func(ds []Decision, opt Options) (*interleaver, error) {
		sys := smp.New(smp.Config{
			CPUs:      cpus,
			Quantum:   modelQuantum,
			MaxCycles: smpBudget,
		})
		if opt.Tracer != nil {
			sys.AttachTracer(opt.Tracer)
		}
		sys.Load(prog)
		for c := 0; c < cpus; c++ {
			sys.Spawn(c, prog.MustSymbol("worker"), guest.StackTop(smp.GlobalID(c, 0)), isa.Word(iters))
		}
		in := &interleaver{sys: sys, ds: ds, turnMax: smpTurn}
		// On shared memory the counter watchpoint IS the mutual-exclusion
		// checker: each critical section is lw/addi/sw, so two overlapping
		// passages surface as a store that is not old+1.
		sys.Mem.Watch(counterAddr, func(old, new isa.Word) {
			if new != old+1 {
				in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
			}
		})
		in.finish = func() {
			if got := sys.Mem.Peek(counterAddr); got != want {
				in.vio.add("counter-exact", "counter = %d, want %d", got, want)
			}
		}
		return in, nil
	}}
	return &model{name: "smp-counter", params: p, primary: ActSwitch, new: w.New}, nil
}

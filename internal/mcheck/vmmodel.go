package mcheck

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
)

// vmach-backed models. Every instance is a fresh kernel over the model's
// pre-assembled program, with the schedule rendered as a chaos injector
// at PointStep, the timer effectively disabled (the schedule is the only
// scheduler), and a generous cycle budget as a safety net. The decision
// ordinal space is kernel.Steps(): retired user instructions.

// modelQuantum pushes the timer past any bounded run, so the only
// preemptions are the schedule's. modelBudget is the runaway net.
const (
	modelQuantum = uint64(1) << 40
	modelBudget  = uint64(20_000_000)
)

type vmachInstance struct {
	k      *kernel.Kernel
	vio    violations
	done   bool
	ended  bool
	runErr error
	// expectCrash marks schedules that contain a crash decision, whose
	// ErrMachineCrash outcome is the point, not a violation.
	expectCrash bool
	// finish applies the model's end-state invariants.
	finish func()
	// single caps every batch at one step: the grain batching must be
	// indistinguishable from. Only equivalence tests set it.
	single bool
}

// newVmachInstance builds the standard model-checking kernel around an
// instance: schedule injector installed (always, so step ordinals
// count), timer parked.
func newVmachInstance(strat kernel.Strategy, ds []Decision, opt Options) *vmachInstance {
	k := kernel.New(kernel.Config{
		Strategy:  strat,
		Quantum:   modelQuantum,
		MaxCycles: modelBudget,
		Faults:    newInjector(chaos.PointStep, ds),
	})
	if opt.Tracer != nil {
		k.Tracer = opt.Tracer
	}
	return &vmachInstance{k: k, expectCrash: hasAct(ds, ActCrash)}
}

// step runs the kernel up to n steps further in one batch: the quiet
// instructions of a batch are exactly the step ordinals no decision can
// fire at, so a batch that stops at the caller's pause target passes
// through the states single steps would.
func (in *vmachInstance) step(n uint64) {
	if in.single {
		n = 1
	}
	_, fin, err := in.k.StepUpTo(n)
	if fin {
		in.done = true
		in.runErr = err
	}
}

func (in *vmachInstance) RunTo(at uint64) bool {
	for !in.done && in.k.Steps() < at {
		in.step(at - in.k.Steps())
	}
	return in.done
}

func (in *vmachInstance) RunToEnd() {
	for !in.done {
		in.step(chaos.Never)
	}
	if in.ended {
		return
	}
	in.ended = true
	if !errors.Is(in.runErr, kernel.ErrMachineCrash) {
		in.vio.terminal(in.runErr, -1)
	} else if !in.expectCrash {
		in.vio.add("crash", "%v", in.runErr)
	}
	in.finish()
}

func (in *vmachInstance) Cursor() uint64          { return in.k.Steps() }
func (in *vmachInstance) Violations() []Violation { return in.vio.list }
func (in *vmachInstance) StateHash() ([32]byte, bool) {
	return hashKernel(in.k), true
}

func hasAct(ds []Decision, a Action) bool {
	for _, d := range ds {
		if d.Act == a {
			return true
		}
	}
	return false
}

// watchMutexCounter installs the mutual-exclusion and lost-update
// checkers on a lock/counter workload: ownership is tracked at the lock
// word, and judged at the counter — the critical section's effect — so a
// losing test-and-set harmlessly re-storing 1 does not false-positive.
func watchMutexCounter(k *kernel.Kernel, lockAddr, counterAddr uint32, v *violations) {
	holder := -1
	k.M.Mem.Watch(lockAddr, func(old, new isa.Word) {
		me := k.CurrentID()
		switch {
		case old == 0 && new != 0:
			holder = me
		case old != 0 && new == 0:
			if me != holder {
				v.add("lock-discipline", "t%d released the lock held by t%d", me, holder)
			}
			holder = -1
		}
	})
	k.M.Mem.Watch(counterAddr, func(old, new isa.Word) {
		me := k.CurrentID()
		if me != holder {
			v.add("mutual-exclusion", "t%d stored counter %d->%d while t%d holds the lock", me, old, new, holder)
		}
		if new != old+1 {
			v.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
}

// strategyByName builds a fresh recovery strategy per instance.
func strategyByName(s string) (kernel.Strategy, error) {
	switch s {
	case "none":
		return nil, nil
	case "registration":
		return &kernel.Registration{}, nil
	case "designated":
		return &kernel.Designated{}, nil
	case "multi":
		return kernel.NewMultiRegistration(), nil
	}
	return nil, fmt.Errorf("mcheck: unknown strategy %q", s)
}

// counterModel checks guest.MutexCounterProgram — the paper's Figure-3
// (registered) and Figure-5 (designated) sequences, plus the unprotected
// control (mech=none) the checker must catch.
func counterModel(p map[string]string) (Model, error) {
	mech, err := counterMech(p["mech"])
	if err != nil {
		return nil, err
	}
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.MutexCounterProgram(mech, workers, iters))
	if err != nil {
		return nil, fmt.Errorf("mcheck: counter: %v", err)
	}
	return &model{name: "counter", params: p, primary: ActPreempt, new: func(ds []Decision, opt Options) (Instance, error) {
		strat, err := strategyByName(counterStrategy(mech))
		if err != nil {
			return nil, err
		}
		in := newVmachInstance(strat, ds, opt)
		k := in.k
		k.Load(prog)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		watchMutexCounter(k, prog.MustSymbol("lock"), prog.MustSymbol("counter"), &in.vio)
		want := isa.Word(workers * iters)
		kills := hasAct(ds, ActKill)
		in.finish = func() {
			got := k.M.Mem.Peek(prog.MustSymbol("counter"))
			switch {
			case !kills && got != want:
				in.vio.add("counter-exact", "counter = %d, want %d", got, want)
			case kills && got > want:
				in.vio.add("counter-exact", "counter = %d exceeds %d with kills", got, want)
			}
		}
		return in, nil
	}}, nil
}

func counterMech(s string) (guest.Mechanism, error) {
	switch s {
	case "none":
		return guest.MechNone, nil
	case "registered":
		return guest.MechRegistered, nil
	case "designated":
		return guest.MechDesignated, nil
	}
	return 0, fmt.Errorf("mcheck: counter: unknown mech %q", s)
}

func counterStrategy(m guest.Mechanism) string {
	switch m {
	case guest.MechRegistered:
		return "registration"
	case guest.MechDesignated:
		return "designated"
	}
	return "none"
}

// broken2storeModel is the deliberately malformed two-store sequence.
// kernel.VerifySequence rejects it at registration time, so the harness
// installs the range through the MultiRegistration backdoor — bypassing
// the static check on purpose to prove the dynamic checker catches what
// slips through.
func broken2storeModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.BrokenTwoStoreProgram())
	if err != nil {
		return nil, fmt.Errorf("mcheck: broken2store: %v", err)
	}
	return &model{name: "broken2store", params: p, primary: ActPreempt, new: func(ds []Decision, opt Options) (Instance, error) {
		strat := kernel.NewMultiRegistration()
		in := newVmachInstance(strat, ds, opt)
		k := in.k
		k.Load(prog)
		lo, hi := prog.MustSymbol("bad_seq"), prog.MustSymbol("bad_end")
		if err := k.VerifySequence(lo, hi-lo); err == nil {
			return nil, fmt.Errorf("mcheck: broken2store: verifier accepted the malformed range")
		}
		strat.AddRange(lo, hi-lo)
		for w := 0; w < workers; w++ {
			k.Spawn(prog.MustSymbol("worker"), guest.StackTop(w), isa.Word(iters))
		}
		want := isa.Word(workers * iters)
		kills := hasAct(ds, ActKill)
		in.finish = func() {
			got := k.M.Mem.Peek(prog.MustSymbol("counter"))
			if got != want && !kills {
				in.vio.add("counter-exact", "counter = %d, want %d (restart re-applied a committed store)", got, want)
			}
		}
		return in, nil
	}}, nil
}

// recoverableModel checks guest.RecoverableCounterProgram — the
// owner+epoch recoverable lock — under forced kills: the RME dead-owner-
// repair invariants (increments only under the lock, steals only from
// the dead, epoch bumps exactly once per steal) as guest.WatchRME's
// memory watchpoints.
func recoverableModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	if _, err := strategyByName(p["strategy"]); err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.RecoverableCounterProgram(workers, iters))
	if err != nil {
		return nil, fmt.Errorf("mcheck: recoverable: %v", err)
	}
	return &model{name: "recoverable", params: p, primary: ActKill, new: func(ds []Decision, opt Options) (Instance, error) {
		strat, _ := strategyByName(p["strategy"])
		in := newVmachInstance(strat, ds, opt)
		k := in.k
		k.Load(prog)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		rme := guest.WatchRME(k.M.Mem, prog, k, false, in.vio.breach)
		want := isa.Word(workers * iters)
		kills := hasAct(ds, ActKill)
		in.finish = func() {
			got := k.M.Mem.Peek(prog.MustSymbol("counter"))
			if got != isa.Word(rme.Increments) {
				in.vio.add("rme", "counter = %d but %d watched increments", got, rme.Increments)
			}
			if !kills && got != want {
				in.vio.add("counter-exact", "counter = %d, want %d", got, want)
			}
			if kills && got > want {
				in.vio.add("counter-exact", "counter = %d exceeds %d", got, want)
			}
		}
		return in, nil
	}}, nil
}

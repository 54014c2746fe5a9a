package mcheck

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/uniproc"
)

// uniproc-backed models. The runtime layer runs whole schedules — its
// scheduler cannot pause between green-thread steps from outside — so a
// uniInstance runs its whole schedule on the first RunTo or RunToEnd and
// cannot hash a paused state: the exhaustive explorer enumerates these
// (small) decision spaces without pruning. A model supplies only run,
// which builds the processors, drives them through opt.run, applies its
// invariants, records its Outcome and returns the cursor. The ordinal
// space is PointMemOp (guest Load/Store operations) for the counter and
// RME models, and persist operations for the crash-family models
// (uni-persist, memfs-journal, pstruct, resilience).

// uniRun is a uniproc model's whole run: it records breaches in vio and
// what the run did in out, and returns the cursor.
type uniRun func(ds []Decision, opt Options, vio *violations, out *Outcome) (cursor uint64)

type uniInstance struct {
	run    uniRun
	ds     []Decision
	opt    Options
	vio    violations
	out    Outcome
	done   bool
	cursor uint64
}

// uniNew builds the Model.New of a uniproc model from its run func.
func uniNew(run uniRun) func([]Decision, Options) (Instance, error) {
	return func(ds []Decision, opt Options) (Instance, error) {
		return &uniInstance{run: run, ds: ds, opt: opt}, nil
	}
}

func (in *uniInstance) RunTo(at uint64) bool { in.RunToEnd(); return true }
func (in *uniInstance) RunToEnd() {
	if in.done {
		return
	}
	in.done = true
	in.cursor = in.run(in.ds, in.opt, &in.vio, &in.out)
}
func (in *uniInstance) Cursor() uint64              { return in.cursor }
func (in *uniInstance) Violations() []Violation     { return in.vio.list }
func (in *uniInstance) StateHash() ([32]byte, bool) { return [32]byte{}, false }

// uniCounterModel is the runtime-layer counter: workers increment a
// shared word either inside a restartable sequence (sync=ras, always
// exact) or bare (sync=none, loses updates under a preemption between
// the load and the store — the violation the checker must find).
func uniCounterModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	sync := p["sync"]
	if sync != "ras" && sync != "none" {
		return nil, fmt.Errorf("mcheck: uni-counter: unknown sync %q", sync)
	}
	return &model{name: "uni-counter", params: p, primary: ActPreempt, new: uniNew(func(ds []Decision, opt Options, vio *violations, _ *Outcome) uint64 {
		proc := uniproc.New(uniproc.Config{
			Quantum:   1 << 40,
			MaxCycles: modelBudget,
			Faults:    newInjector(chaos.PointMemOp, ds),
		})
		proc.Tracer = opt.Tracer
		var counter core.Word
		for w := 0; w < workers; w++ {
			proc.Go("worker", func(e *uniproc.Env) {
				for it := 0; it < iters; it++ {
					if sync == "ras" {
						e.Restartable(func() {
							v := e.Load(&counter)
							e.Commit(&counter, v+1)
						})
					} else {
						v := e.Load(&counter)
						e.ChargeALU(1)
						e.Store(&counter, v+1)
					}
				}
			})
		}
		vio.terminal(opt.run(proc, proc.Run), -1)
		want := core.Word(workers * iters)
		kills := hasAct(ds, ActKill)
		switch {
		case !kills && counter != want:
			vio.add("counter-exact", "counter = %d, want %d", counter, want)
		case kills && counter > want:
			vio.add("counter-exact", "counter = %d exceeds %d with kills", counter, want)
		}
		return proc.MemOps()
	})}, nil
}

// uniRMEModel is core.RecoverableMutex under forced kills — the
// recoverable-mutual-exclusion model: a kill inside the critical section
// must be repaired (dead-owner steal with an epoch bump), never breach
// mutual exclusion, and never wedge the survivors. The RMEChecker audits
// every transition; the Go-side shadow count pins the counter exactly.
func uniRMEModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	return &model{name: "uni-rme", params: p, primary: ActKill, new: uniNew(func(ds []Decision, opt Options, vio *violations, out *Outcome) uint64 {
		proc := uniproc.New(uniproc.Config{
			Quantum:   2000,
			MaxCycles: modelBudget,
			Faults:    newInjector(chaos.PointMemOp, ds),
		})
		proc.Tracer = opt.Tracer
		mtx := core.NewRecoverableMutex()
		mtx.Checker = core.NewRMEChecker()
		var counter core.Word
		var shadow uint64
		for w := 0; w < workers; w++ {
			proc.Go("worker", func(e *uniproc.Env) {
				for it := 0; it < iters; it++ {
					mtx.Acquire(e)
					v := e.Load(&counter)
					e.ChargeALU(1)
					shadow++
					e.Store(&counter, v+1)
					mtx.Release(e)
				}
			})
		}
		vio.terminal(opt.run(proc, proc.Run), -1)
		for _, s := range mtx.Checker.Violations() {
			vio.add("rme", "%s", s)
		}
		if uint64(counter) != shadow {
			vio.add("mutual-exclusion", "counter = %d, shadow = %d", counter, shadow)
		}
		for _, th := range proc.Threads() {
			if !th.Done() {
				vio.add("stuck", "thread %v never finished", th)
			}
		}
		out.Kills, out.Repairs = proc.Stats.Kills, mtx.Checker.Steals()
		return proc.MemOps()
	})}, nil
}

// uniPersistModel is core.PersistentMutex guarding a caller-persisted
// counter on a crash-prone NVRAM processor, the uniproc twin of the
// persist model: workers acquire, increment, flush and fence the
// counter, then release, and main recovers the lock word before forking
// them on every reboot. A crash may discard at most the one increment
// not yet fenced (persist-loss), and the last boot ends exactly
// workers*iters past what survived (counter-exact).
func uniPersistModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	perBoot := core.Word(workers * iters)
	return &model{name: "uni-persist", params: p, primary: ActCrashVolatile, new: uniNew(func(ds []Decision, opt Options, vio *violations, out *Outcome) uint64 {
		mu := core.NewPersistentMutex()
		// start is the counter that survived into the current boot, and
		// committed the increments stored since it began.
		var counter, start, committed core.Word
		return rebootUni(ds, opt, vio, out, func(proc *uniproc.Processor, boot int) func() {
			if boot > 0 {
				loss := int64(start+committed) - int64(counter)
				out.MaxLoss = max(out.MaxLoss, loss)
				if loss > 1 {
					vio.add("persist-loss", "crash in boot %d: counter %d survived of %d — %d increments lost, bound is 1",
						boot, counter, start+committed, loss)
				}
				start, committed = counter, 0
			}
			proc.Go("main", func(e *uniproc.Env) {
				if boot > 0 && mu.Recover(e) {
					out.Repairs++
				}
				for w := 0; w < workers; w++ {
					e.Fork("worker", func(e *uniproc.Env) {
						for it := 0; it < iters; it++ {
							mu.Acquire(e)
							e.Store(&counter, e.Load(&counter)+1)
							committed++
							e.Flush(&counter)
							e.Fence()
							mu.Release(e)
						}
					})
				}
			})
			return func() {
				if want := start + perBoot; counter != want {
					vio.add("counter-exact", "counter = %d after boot %d, want %d (%d survived + %d new)",
						counter, boot+1, want, start, perBoot)
				}
			}
		})
	})}, nil
}

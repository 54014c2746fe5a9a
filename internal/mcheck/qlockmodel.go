package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/qlock"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The qlock models check internal/qlock's queue locks the same way the
// smp model checks the paper's hybrid lock — whole-CPU interleaving
// with forced decisions at scheduler-step ordinals — but with a much
// smaller fairness quantum: queue locks hand off through memory, so a
// waiter parked on the interleaving for thousands of steps only burns
// horizon. The short quantum keeps whole contended runs inside an
// exhaustively walkable ordinal space.
const qlockTurn = 48

// qlockBudget bounds each CPU's cycles. Wedged queues (the MCS
// baseline under kills, the planted unspliced variant) surface as this
// budget tripping, which the end-state check reports as a violation.
const qlockBudget = uint64(2_000_000)

func qlockVariant(p map[string]string) (qlock.Variant, error) {
	switch p["variant"] {
	case "mcs":
		return qlock.MCS, nil
	case "rmcs":
		return qlock.RMCS, nil
	case "rmcs-unspliced":
		return qlock.RMCSUnspliced, nil
	}
	return 0, fmt.Errorf("mcheck: unknown qlock variant %q", p["variant"])
}

// qlockQueueModel checks MCS-family FIFO and exactness under forced
// CPU switches (no kills): the critical sections must be granted in
// exactly the order the tail swaps admitted the waiters.
func qlockQueueModel(p map[string]string) (Model, error) {
	v, err := qlockVariant(p)
	if err != nil {
		return nil, err
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	cfg := qlock.Config{
		Variant:   v,
		CPUs:      cpus,
		Iters:     iters,
		Audit:     true,
		Quantum:   modelQuantum,
		MaxCycles: qlockBudget,
	}
	prog := qlock.Assembled(cfg)
	w := &switchWalkers{build: func(ds []Decision, opt Options) (*interleaver, error) {
		return newQlockInstance(cfg, prog, ds, opt, true)
	}}
	return &model{name: "qlock-queue", params: p, primary: ActSwitch, new: w.New}, nil
}

// qlockRecModel checks the recoverable variants under forced kills.
// Rendezvous roles guarantee real queue overlap on every schedule, so
// a kill at any ordinal lands on a non-trivial queue. Recoverable MCS
// must keep exactness and liveness; the plain MCS baseline and the
// planted unspliced variant must wedge (budget violation) within one
// kill, which is what the suite's expect=violation entries pin.
func qlockRecModel(p map[string]string) (Model, error) {
	v, err := qlockVariant(p)
	if err != nil {
		return nil, err
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	var workers []qlock.WorkerOpt
	switch cpus {
	case 2:
		workers = []qlock.WorkerOpt{qlock.HoldFor(1), qlock.WaitHeld(0)}
	case 3:
		// A holds until W has enqueued; D queues behind A; W queues
		// behind D — the three-party shape whose middle waiter dying
		// exercises splicing and successor scans.
		workers = []qlock.WorkerOpt{qlock.HoldFor(2), qlock.WaitHeld(0), qlock.WaitEnq(1)}
	default:
		return nil, fmt.Errorf("mcheck: qlock-rec wants cpus=2|3, got %d", cpus)
	}
	cfg := qlock.Config{
		Variant:   v,
		CPUs:      cpus,
		Iters:     iters,
		Workers:   workers,
		Quantum:   modelQuantum,
		MaxCycles: qlockBudget,
	}
	prog := qlock.Assembled(cfg)
	return &model{name: "qlock-rec", params: p, primary: ActKill, new: func(ds []Decision, opt Options) (Instance, error) {
		in, err := newQlockInstance(cfg, prog, ds, opt, false)
		if err != nil {
			return nil, err // not a nil *interleaver in a non-nil Instance
		}
		return in, nil
	}}, nil
}

// newQlockInstance drives one qlock system under a decision list, in
// the smp-counter style: the ordinal space is scheduler steps across all
// CPUs, ActSwitch rotates the interleaving, ActKill kills the thread on
// the CPU holding it. fifo (kill-free models only) also checks that the
// grant order is the admission order.
func newQlockInstance(cfg qlock.Config, prog *asm.Program, ds []Decision, opt Options, fifo bool) (*interleaver, error) {
	r, err := qlock.NewWith(cfg, prog)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		r.Sys.AttachTracer(opt.Tracer)
	}
	in := &interleaver{sys: r.Sys, ds: ds, turnMax: qlockTurn}
	kills := 0 // kills actually applied
	in.kill = func(cpu int) {
		if err := r.Sys.KillThread(cpu, 0); err == nil {
			kills++
		}
	}
	r.Sys.Mem.Watch(r.Prog.Counter, func(old, new isa.Word) {
		if new != old+1 {
			in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
	var enq []int // global tids in tail-swap order
	if fifo {
		// The qtail watchpoint records the true admission order: with no
		// kills and no TryAcquire the only non-zero stores to the tail
		// are the enqueue swaps, one per passage. A qnode's address maps
		// back to its worker's global tid.
		r.Sys.Mem.Watch(r.Prog.Qtail, func(old, new isa.Word) {
			if new != 0 {
				enq = append(enq, smp.GlobalID(int(uint32(new)-r.Prog.Qnodes)/64, 0))
			}
		})
	}
	in.finish = func() {
		res, err := r.Collect()
		if err != nil {
			// One benign shape: a worker killed inside its critical
			// section after the counter increment but before its own
			// completion count leaves the counter exactly one ahead.
			if res == nil || res.Counter != res.Passages+1 || kills == 0 {
				in.vio.add("mutual-exclusion", "%v", err)
				return
			}
		}
		iters := uint64(cfg.Iters)
		for c := range r.Sys.CPUs {
			ts := r.Sys.CPUs[c].Threads()
			exited := len(ts) > 0 && ts[0].State == kernel.StateDone
			if exited && res.Mine[c] != iters {
				in.vio.add("lost-passage", "surviving worker %d completed %d of %d passages", c, res.Mine[c], iters)
			}
		}
		if kills == 0 && res.Counter != uint64(cfg.CPUs)*iters {
			in.vio.add("counter-exact", "counter = %d, want %d", res.Counter, uint64(cfg.CPUs)*iters)
		}
		if !fifo {
			return
		}
		if len(res.CSOrder) != len(enq) {
			in.vio.add("fifo", "%d grants vs %d admissions", len(res.CSOrder), len(enq))
			return
		}
		for i := range enq {
			if res.CSOrder[i] != enq[i] {
				in.vio.add("fifo", "grant %d went to tid %d, admission order says tid %d",
					i, res.CSOrder[i], enq[i])
				return
			}
		}
	}
	return in, nil
}

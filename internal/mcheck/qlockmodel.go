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
type qlockQueueModel struct {
	params  map[string]string
	cfg     qlock.Config
	prog    *asm.Program
	walkers switchWalkers
}

func qlockQueueModelBuild(p map[string]string) (Model, error) {
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
	m := &qlockQueueModel{params: p, cfg: cfg, prog: qlock.Assembled(cfg)}
	m.walkers.build = m.build
	return m, nil
}

func (m *qlockQueueModel) Name() string              { return "qlock-queue" }
func (m *qlockQueueModel) Params() map[string]string { return m.params }
func (m *qlockQueueModel) Primary() Action           { return ActSwitch }
func (m *qlockQueueModel) Pausable() bool            { return true }

func (m *qlockQueueModel) New(ds []Decision, opt Options) (Instance, error) {
	return m.walkers.New(ds, opt)
}

// build is New without the walker cache: a from-scratch instance.
func (m *qlockQueueModel) build(ds []Decision, opt Options) (interleaved, error) {
	in, err := newQlockInstance(m.cfg, m.prog, ds, opt)
	if err != nil {
		return nil, err
	}
	in.fifo = true
	// The qtail watchpoint records the true admission order: with no
	// kills and no TryAcquire the only non-zero stores to the tail are
	// the enqueue swaps, one per passage.
	in.sys.Mem.Watch(in.run.Prog.Qtail, func(old, new isa.Word) {
		if new != 0 {
			in.enq = append(in.enq, in.nodeOwner(uint32(new)))
		}
	})
	return in, nil
}

// qlockRecModel checks the recoverable variants under forced kills.
// Rendezvous roles guarantee real queue overlap on every schedule, so
// a kill at any ordinal lands on a non-trivial queue. Recoverable MCS
// must keep exactness and liveness; the plain MCS baseline and the
// planted unspliced variant must wedge (budget violation) within one
// kill, which is what the suite's expect=violation entries pin.
type qlockRecModel struct {
	params map[string]string
	cfg    qlock.Config
	prog   *asm.Program
}

func qlockRecModelBuild(p map[string]string) (Model, error) {
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
	return &qlockRecModel{params: p, cfg: cfg, prog: qlock.Assembled(cfg)}, nil
}

func (m *qlockRecModel) Name() string              { return "qlock-rec" }
func (m *qlockRecModel) Params() map[string]string { return m.params }
func (m *qlockRecModel) Primary() Action           { return ActKill }
func (m *qlockRecModel) Pausable() bool            { return true }

func (m *qlockRecModel) New(ds []Decision, opt Options) (Instance, error) {
	in, err := newQlockInstance(m.cfg, m.prog, ds, opt)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// qlockInstance drives one qlock system under a decision list, in the
// smp-counter style: the ordinal space is scheduler steps across all
// CPUs, ActSwitch rotates the interleaving, ActKill kills the thread
// on the CPU holding it.
type qlockInstance struct {
	interleaver
	run *qlock.Run

	fifo  bool  // check grant order == admission order (kill-free models)
	enq   []int // global tids in tail-swap order
	kills int   // kills actually applied
}

func newQlockInstance(cfg qlock.Config, prog *asm.Program, ds []Decision, opt Options) (*qlockInstance, error) {
	r, err := qlock.NewWith(cfg, prog)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		r.Sys.AttachTracer(opt.Tracer)
	}
	in := &qlockInstance{
		interleaver: interleaver{sys: r.Sys, ds: ds, turnMax: qlockTurn},
		run:         r,
	}
	in.kill = func(cpu int) {
		if err := r.Sys.KillThread(cpu, 0); err == nil {
			in.kills++
		}
	}
	r.Sys.Mem.Watch(r.Prog.Counter, func(old, new isa.Word) {
		if new != old+1 {
			in.vio.add("lost-update", "counter store %d->%d is not an increment", old, new)
		}
	})
	return in, nil
}

// nodeOwner maps a qnode address back to its worker's global tid.
func (in *qlockInstance) nodeOwner(addr uint32) int {
	cpu := int(addr-in.run.Prog.Qnodes) / 64
	return smp.GlobalID(cpu, 0)
}

func (in *qlockInstance) RunToEnd() {
	if !in.runOut() {
		return
	}
	res, err := in.run.Collect()
	if err != nil {
		// One benign shape: a worker killed inside its critical
		// section after the counter increment but before its own
		// completion count leaves the counter exactly one ahead.
		if res == nil || res.Counter != res.Passages+1 || in.kills == 0 {
			in.vio.add("mutual-exclusion", "%v", err)
			return
		}
	}
	iters := uint64(in.run.Cfg.Iters)
	for c := range in.sys.CPUs {
		ts := in.sys.CPUs[c].Threads()
		exited := len(ts) > 0 && ts[0].State == kernel.StateDone
		if exited && res.Mine[c] != iters {
			in.vio.add("lost-passage", "surviving worker %d completed %d of %d passages", c, res.Mine[c], iters)
		}
	}
	if in.kills == 0 && res.Counter != uint64(in.run.Cfg.CPUs)*iters {
		in.vio.add("counter-exact", "counter = %d, want %d", res.Counter, uint64(in.run.Cfg.CPUs)*iters)
	}
	if in.fifo {
		if len(res.CSOrder) != len(in.enq) {
			in.vio.add("fifo", "%d grants vs %d admissions", len(res.CSOrder), len(in.enq))
			return
		}
		for i := range in.enq {
			if res.CSOrder[i] != in.enq[i] {
				in.vio.add("fifo", "grant %d went to tid %d, admission order says tid %d",
					i, res.CSOrder[i], in.enq[i])
				return
			}
		}
	}
}

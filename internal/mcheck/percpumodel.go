package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/percpu"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The per-CPU data-plane models (PR 8): the three structures the percpu
// library and its guest twin rest on, each with its planted defect.
//
//   - percpu-queue: the runtime-layer MPSC queue. drain=safe detaches the
//     ready list in one restartable commit; drain=unsafe is the planted
//     non-atomic drain (Queue.DrainUnsafe), which discards any push that
//     lands between its head read and its head clear.
//   - percpu-freelist: the guest intrusive free list. variant=ras
//     registers the pop and push-commit sequences; variant=bare runs them
//     unregistered, so a preemption between the head load and the commit
//     resumes with a stale node and two threads own the same block.
//   - percpu-server: the guest request plane on SMP. variant=percpu is
//     the per-CPU ring design, variant=mutex the global-lock baseline,
//     and variant=racy the planted drain bug — the worker trusts the
//     reserved tail instead of the per-slot publication word, consuming a
//     slot whose producer was preempted before publishing.

// percpuQueueModel checks percpu.Queue on the virtual uniprocessor:
// producers enqueue on their home shard, one consumer drains every shard
// in batches, and the drained traffic must equal the enqueued traffic
// exactly. Producers yield between requests so the consumer's drain
// naturally overlaps pending pushes — which is precisely the window the
// unsafe drain loses.
func percpuQueueModel(p map[string]string) (Model, error) {
	drain := p["drain"]
	if drain != "safe" && drain != "unsafe" {
		return nil, fmt.Errorf("mcheck: percpu-queue: unknown drain %q", drain)
	}
	producers, err := paramInt(p, "producers")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	return &model{name: "percpu-queue", params: p, primary: ActPreempt, new: uniNew(func(ds []Decision, opt Options, vio *violations, _ *Outcome) uint64 {
		proc := uniproc.New(uniproc.Config{
			Quantum:   1 << 40,
			MaxCycles: modelBudget,
			Faults:    newInjector(chaos.PointMemOp, ds),
		})
		proc.Tracer = opt.Tracer
		dom := percpu.NewDomain(cpus)
		// Pool sized so backpressure never blocks a producer even if the
		// unsafe drain leaks nodes: a stuck run would hide the lost update
		// behind a deadlock report.
		q := percpu.NewQueue(dom, producers*iters+1)
		retired := 0
		var gotSum uint64
		for w := 0; w < producers; w++ {
			proc.Go("producer", func(e *uniproc.Env) {
				for it := 0; it < iters; it++ {
					q.Enqueue(e, 1)
					e.Yield() // think time: lets drains overlap pushes
				}
				retired++
			})
		}
		proc.Go("consumer", func(e *uniproc.Env) {
			for {
				got := 0
				for cpu := 0; cpu < cpus; cpu++ {
					var batch []percpu.Word
					if drain == "unsafe" {
						batch = q.DrainUnsafe(e, cpu)
					} else {
						batch = q.Drain(e, cpu)
					}
					got += len(batch)
					for _, v := range batch {
						gotSum += uint64(v)
					}
				}
				if got == 0 && retired == producers {
					return
				}
				if got == 0 {
					e.Yield()
				}
			}
		})
		vio.terminal(opt.run(proc, proc.Run), -1)
		want := uint64(producers * iters)
		st := q.Stats()
		if !hasAct(ds, ActKill) {
			if st.Drained != st.Enqueued || gotSum != want {
				vio.add("lost-update", "drained %d of %d enqueued requests (payload sum %d, want %d)",
					st.Drained, st.Enqueued, gotSum, want)
			}
			for _, th := range proc.Threads() {
				if !th.Done() {
					vio.add("stuck", "thread %v never finished", th)
				}
			}
		}
		return proc.MemOps()
	})}, nil
}

// percpuFreeListModel checks guest.FreeListProgram on the vmach kernel:
// workers pop a node, stamp their owner tag (the watchpoint: the old tag
// must be zero, or two threads own the block), hold it across a
// reschedule, and push it back. variant=ras registers the pop and
// push-commit sequences so an interrupted pop restarts from its head
// load; variant=bare leaves them unregistered — the double allocation
// the checker must catch.
func percpuFreeListModel(p map[string]string) (Model, error) {
	variant := p["variant"]
	if variant != "ras" && variant != "bare" {
		return nil, fmt.Errorf("mcheck: percpu-freelist: unknown variant %q", variant)
	}
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	nodes, err := paramInt(p, "nodes")
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.FreeListProgram(nodes))
	if err != nil {
		return nil, fmt.Errorf("mcheck: percpu-freelist: %v", err)
	}
	return &model{name: "percpu-freelist", params: p, primary: ActPreempt, new: func(ds []Decision, opt Options) (Instance, error) {
		var strat kernel.Strategy
		if variant == "ras" {
			strat = kernel.NewMultiRegistration()
		}
		in := newVmachInstance(strat, modelQuantum, ds, opt)
		k := in.k
		k.Load(prog)
		if variant == "ras" {
			for _, r := range guest.FreeListSequenceRanges(prog) {
				if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
					return nil, fmt.Errorf("mcheck: percpu-freelist: %v", err)
				}
			}
		}
		for w := 0; w < workers; w++ {
			k.Spawn(prog.MustSymbol("worker"), guest.StackTop(w),
				isa.Word(iters), isa.Word(w+1))
		}
		// One watchpoint per node's owner word: a stamp over a live tag is
		// a double allocation.
		for i := 0; i < nodes; i++ {
			addr := prog.MustSymbol(guest.FreeListNodeLabel(i)) + 4
			node := i
			k.M.Mem.Watch(addr, func(old, new isa.Word) {
				if old != 0 && new != 0 {
					in.vio.add("double-alloc", "node %d stamped by owner %d while owner %d still holds it",
						node, new, old)
				}
			})
		}
		kills := hasAct(ds, ActKill)
		head := prog.MustSymbol("fhead")
		in.finish = func() {
			if kills {
				return // a killed holder legitimately leaks its node
			}
			// Every node must be back on the list, reachable exactly once.
			count := 0
			for at := k.M.Mem.Peek(head); at != 0 && count <= nodes; at = k.M.Mem.Peek(uint32(at)) {
				count++
			}
			if count != nodes {
				in.vio.add("free-list", "%d of %d nodes reachable from fhead after all workers exited",
					count, nodes)
			}
		}
		return in, nil
	}}, nil
}

// percpuServerModel checks guest.ServerProgram on the SMP system. The
// decision ordinal space is scheduler steps; an ActPreempt decision is
// rendered into every CPU's kernel injector (firing at that CPU's own
// step ordinal), and an ActSwitch decision rotates the cross-CPU
// interleaving as in smp-counter. The end-state invariant is exact
// request accounting: served must equal cpus*clients*iters.
func percpuServerModel(p map[string]string) (Model, error) {
	var variant guest.ServerVariant
	switch p["variant"] {
	case "percpu":
		variant = guest.ServerPerCPU
	case "mutex":
		variant = guest.ServerMutex
	case "racy":
		variant = guest.ServerRacyDrain
	default:
		return nil, fmt.Errorf("mcheck: percpu-server: unknown variant %q", p["variant"])
	}
	cpus, err := paramInt(p, "cpus")
	if err != nil {
		return nil, err
	}
	clients, err := paramInt(p, "clients")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(guest.ServerProgram(variant, cpus))
	if err != nil {
		return nil, fmt.Errorf("mcheck: percpu-server: %v", err)
	}
	want := uint64(cpus * clients * iters)
	return &model{name: "percpu-server", params: p, primary: ActPreempt, new: func(ds []Decision, opt Options) (Instance, error) {
		inj := newInjector(chaos.PointStep, ds)
		sys := smp.New(smp.Config{
			CPUs:        cpus,
			Quantum:     modelQuantum,
			MaxCycles:   smpBudget,
			NewStrategy: kernel.MultiRegistrationStrategy,
			Faults:      func(int) chaos.Injector { return inj },
		})
		if opt.Tracer != nil {
			sys.AttachTracer(opt.Tracer)
		}
		sys.Load(prog)
		if variant != guest.ServerMutex {
			for _, k := range sys.CPUs {
				for _, r := range guest.ServerSequenceRanges(prog) {
					if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
						return nil, fmt.Errorf("mcheck: percpu-server: %v", err)
					}
				}
			}
		}
		workerArg := clients
		if variant == guest.ServerMutex {
			workerArg = clients * cpus
		}
		worker, client := prog.MustSymbol("worker"), prog.MustSymbol("client")
		for cpu := 0; cpu < cpus; cpu++ {
			sys.Spawn(cpu, worker, guest.StackTop(smp.GlobalID(cpu, 0)), isa.Word(workerArg))
			for c := 0; c < clients; c++ {
				sys.Spawn(cpu, client, guest.StackTop(smp.GlobalID(cpu, c+1)), isa.Word(iters))
			}
		}
		in := &interleaver{sys: sys, ds: ds, turnMax: smpTurn}
		in.finish = func() {
			served, _ := guest.ServerCounts(sys.Mem, prog, variant, cpus)
			if !hasAct(ds, ActKill) && served != want {
				in.vio.add("served-exact", "served %d of %d submitted requests", served, want)
			}
		}
		return in, nil
	}}, nil
}

package mcheck

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// The persist model: guest.PersistentCounterProgram on a memory with the
// two-tier NVRAM persistence model enabled, checked against whole-machine
// crashes that discard every unfenced line (chaos.Action.CrashVolatile
// semantics) followed by a reboot of the same binary over the surviving
// NVM contents.
//
// The decision ordinal space is NOT retired instructions but retired
// persist operations — flushes plus fences, accumulated across reboots —
// so an exhaustive K=1 walk is literally "crash at every flush boundary":
// every state the protocol can leave in NVM is crashed into and must
// recover. With K=2 the second crash can land inside recovery itself.
//
// Unlike the other vmach models the crash is not rendered as a chaos
// injector: the instance itself discards the volatile tier, checks the
// bounded-durability-loss invariant, and boots a fresh kernel over the
// shared memory — a crash here is a transition the run continues through,
// not a terminal event.
type persistInstance struct {
	prog *asm.Program
	mem  *vmach.Memory
	k    *kernel.Kernel
	opt  Options
	vio  *violations

	ds   []Decision
	next int // next decision to fire

	// opsBase is the persist-op count retired by previous boots; the
	// cursor is opsBase plus the current kernel's flush+fence tally.
	opsBase uint64
	boots   int

	counterAddr, lockAddr uint32
	// cStart is the surviving counter at the start of the current boot;
	// the final counter must be exactly cStart + want.
	cStart isa.Word
	want   isa.Word

	done   bool
	ended  bool
	runErr error
}

func persistModel(p map[string]string) (Model, error) {
	workers, iters, err := workerIters(p)
	if err != nil {
		return nil, err
	}
	var src string
	switch p["variant"] {
	case "flushed":
		src = guest.PersistentCounterProgram(workers, iters)
	case "underflush":
		src = guest.UnderflushedCounterProgram(workers, iters)
	default:
		return nil, fmt.Errorf("mcheck: persist: unknown variant %q", p["variant"])
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("mcheck: persist: %v", err)
	}
	m := &vmachModel{name: "persist", params: p, primary: ActCrashVolatile, prog: prog}
	m.build = func(m *vmachModel, ds []Decision, opt Options) (Instance, error) {
		for _, d := range ds {
			if d.Act != ActCrashVolatile {
				return nil, fmt.Errorf("mcheck: persist: only crash-volatile decisions apply (got %s)", d.Act)
			}
		}
		mem := vmach.NewMemory()
		mem.EnablePersistence()
		in := &persistInstance{
			prog: m.prog, mem: mem, opt: opt, vio: &violations{},
			ds:          ds,
			counterAddr: m.prog.MustSymbol("counter"),
			lockAddr:    m.prog.MustSymbol("lock"),
			want:        isa.Word(workers * iters),
		}
		in.installWatchers()
		in.boot()
		return in, nil
	}
	return m, nil
}

// boot starts a kernel over the shared (surviving) memory. Only the first
// boot loads the program image: on a reboot the image is already durable
// in NVM, and reloading would reset the very data words recovery reads.
func (in *persistInstance) boot() {
	k := kernel.New(kernel.Config{
		Strategy:  &kernel.Designated{},
		CheckAt:   kernel.CheckAtResume,
		Quantum:   modelQuantum,
		MaxCycles: modelBudget,
		Memory:    in.mem,
	})
	if in.opt.Tracer != nil {
		k.Tracer = in.opt.Tracer
	}
	in.k = k
	if in.boots == 0 {
		k.Load(in.prog)
	}
	k.Spawn(in.prog.MustSymbol("main"), guest.StackTop(0))
	in.cStart = in.mem.Peek(in.counterAddr)
}

// cursor counts persist operations retired across all boots.
func (in *persistInstance) cursor() uint64 {
	return in.opsBase + in.k.M.Stats.Flushes + in.k.M.Stats.Fences
}

func (in *persistInstance) step() {
	fin, err := in.k.StepOne()
	// A persist op just retired the next decision's ordinal: crash here.
	// Each instruction advances the cursor by at most one, so at most one
	// decision can fire per step.
	if in.next < len(in.ds) && in.cursor() >= in.ds[in.next].At {
		in.crash()
		return
	}
	if fin {
		in.done = true
		in.runErr = err
	}
}

// crash is the CrashVolatile transition: check the bounded-durability-loss
// invariant at this persist boundary, discard the volatile tier, reboot.
func (in *persistInstance) crash() {
	in.next++
	vol := int64(in.mem.Peek(in.counterAddr))
	nvm := int64(in.mem.NVPeek(in.counterAddr))
	if vol-nvm > 1 {
		in.vio.add("persist-loss",
			"crash at persist op %d: counter is %d volatile but %d in NVM — %d increments lost, bound is 1",
			in.cursor(), vol, nvm, vol-nvm)
	}
	in.opsBase += in.k.M.Stats.Flushes + in.k.M.Stats.Fences
	in.mem.DiscardUnflushed()
	in.boots++
	in.boot()
}

func (in *persistInstance) RunTo(at uint64) bool {
	for !in.done && in.cursor() < at {
		in.step()
	}
	return in.done
}

func (in *persistInstance) RunToEnd() {
	for !in.done {
		in.step()
	}
	if in.ended {
		return
	}
	in.ended = true
	switch err := in.runErr; {
	case err == nil:
	case errors.Is(err, kernel.ErrDeadlock):
		in.vio.add("deadlock", "%v", err)
	case errors.Is(err, kernel.ErrLivelock):
		in.vio.add("restart-livelock", "%v", err)
	case errors.Is(err, kernel.ErrBudget):
		in.vio.add("budget", "%v", err)
	default:
		in.vio.add("abort", "%v", err)
	}
	got := in.mem.Peek(in.counterAddr)
	if want := in.cStart + in.want; got != want {
		in.vio.add("counter-exact", "counter = %d after boot %d, want %d (%d survived + %d new)",
			got, in.boots+1, want, in.cStart, in.want)
	}
	if owner := in.mem.Peek(in.lockAddr) & 0xFFFF; owner != 0 {
		in.vio.add("lock-discipline", "lock still owned by %d after the final boot completed", owner)
	}
}

func (in *persistInstance) Cursor() uint64          { return in.cursor() }
func (in *persistInstance) Violations() []Violation { return in.vio.list }

func (in *persistInstance) StateHash() ([32]byte, bool) {
	return hashRebooting(in.k, in.cursor(), in.next, in.boots), true
}

// installWatchers installs the recoverable-mutex watchpoints once, on the
// shared memory, so they survive reboots. They read the *current* kernel
// through the instance, and extend the watchRME rules with the one
// transition crash recovery adds: main (thread 0, alone) releasing a dead
// owner's lock with the epoch bumped, before any worker exists.
func (in *persistInstance) installWatchers() {
	cur := func() int {
		if t := in.k.Current(); t != nil {
			return t.ID
		}
		return -1
	}
	dead := func(tid int) bool {
		if tid < 0 || tid >= len(in.k.Threads()) {
			return true
		}
		switch in.k.Threads()[tid].State {
		case kernel.StateDone, kernel.StateFaulted, kernel.StateKilled:
			return true
		}
		return false
	}
	in.mem.Watch(in.lockAddr, func(old, new isa.Word) {
		me := cur()
		oldOwner, newOwner := int(old&0xFFFF), int(new&0xFFFF)
		oldEpoch, newEpoch := old>>16, new>>16
		switch {
		case oldOwner == 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch {
				in.vio.add("rme", "bad acquire %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner == 0:
			switch {
			case oldOwner == me+1 && newEpoch == oldEpoch:
				// Release by the owner.
			case me == 0 && newEpoch == oldEpoch+1 && dead(oldOwner-1):
				// Boot-time repair of a crashed boot's owner.
			default:
				in.vio.add("rme", "bad release/repair %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch+1 {
				in.vio.add("rme", "bad steal %#x->%#x by t%d", old, new, me)
			}
			if !dead(oldOwner - 1) {
				in.vio.add("mutual-exclusion", "t%d stole the lock from live t%d", me, oldOwner-1)
			}
		}
	})
	in.mem.Watch(in.counterAddr, func(old, new isa.Word) {
		lock := in.mem.Peek(in.lockAddr)
		if me := cur(); int(lock&0xFFFF) != me+1 || new != old+1 {
			in.vio.add("mutual-exclusion", "t%d incremented %d->%d with lock %#x", me, old, new, lock)
		}
	})
}

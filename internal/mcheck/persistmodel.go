package mcheck

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// The persist model: guest.PersistentCounterProgram on a memory with the
// two-tier NVRAM persistence model enabled, checked against whole-machine
// crashes that discard every unfenced line (chaos.CrashVolatile)
// followed by a reboot of the same binary over the surviving NVM
// contents.
//
// The decision ordinal space is NOT retired instructions but retired
// persist operations — flushes plus fences, accumulated across reboots —
// so an exhaustive K=1 walk is literally "crash at every flush boundary":
// every state the protocol can leave in NVM is crashed into and must
// recover. With K=2 the second crash can land inside recovery itself.
//
// rebootInstance is that run, shared with the journal model: a pausable
// run of one kernel.Lives machine in which, unlike the other vmach
// models, a crash is not a chaos injector's terminal event but a
// transition the run continues through — memory takes the decision's
// crash kind, the model audits both sides of it, and the machine
// warm-boots again over what survived. The cursor counts persist
// operations (flushes + fences) retired across all boots. Each life runs
// through the Run hook; its Outcome counts the crashes, and the model
// adds what its audits saw.
type rebootInstance struct {
	lives kernel.Lives
	k     *kernel.Kernel
	opt   Options
	vio   violations
	out   Outcome

	ds   []Decision
	next int // next decision to fire; every fired decision crashed a boot

	// opsBase is the persist-op count retired by previous boots; the
	// cursor is opsBase plus the current kernel's flush+fence tally.
	opsBase uint64

	// At crash decision d, audit (if set) inspects memory before it takes
	// the crash and crashed inspects what survived. Both run before
	// opsBase advances, so cursor() still reads d.At.
	audit, crashed func(d Decision)
	// finish applies the model's end-state invariants.
	finish func()

	done   bool
	ended  bool
	runErr error
}

// newRebootInstance builds an unbooted machine for prog; the model
// installs its closures, boots, then watches the shared memory.
func newRebootInstance(prog *asm.Program, ds []Decision, opt Options) *rebootInstance {
	return &rebootInstance{opt: opt, ds: ds, lives: kernel.Lives{Prog: prog, StackTop: guest.StackTop(0),
		Config: kernel.Config{Strategy: &kernel.Designated{}, CheckAt: kernel.CheckAtResume,
			Quantum: modelQuantum, MaxCycles: modelBudget}}}
}

// boot starts the machine's next life over the shared (surviving) memory.
func (in *rebootInstance) boot() {
	in.k = in.lives.Boot(nil)
	if in.opt.Tracer != nil {
		in.k.Tracer = in.opt.Tracer
	}
}

// reboot warm-boots the machine after its current life crashed.
func (in *rebootInstance) reboot() {
	in.opsBase += in.k.M.Stats.Flushes + in.k.M.Stats.Fences
	in.boot()
}

func (in *rebootInstance) mem() *vmach.Memory { return in.lives.Memory() }

// cursor counts persist operations retired across all boots.
func (in *rebootInstance) cursor() uint64 {
	return in.opsBase + in.k.M.Stats.Flushes + in.k.M.Stats.Fences
}

// step retires one instruction. When it retires the persist op at the
// next decision's ordinal, memory takes the crash and step reports that
// the life ended; the caller reboots. Each instruction advances the
// cursor by at most one, so at most one decision can fire per step.
func (in *rebootInstance) step() (crashed bool) {
	fin, err := in.k.StepOne()
	if in.next < len(in.ds) && in.cursor() >= in.ds[in.next].At {
		d := in.ds[in.next]
		in.next++
		if in.audit != nil {
			in.audit(d)
		}
		// The tear of a torn crash derives from the decision ordinal, so
		// a .sched replays the exact same split.
		in.mem().Crash(actFaults[d.Act].Crash, d.At)
		if tr := in.k.Tracer; tr != nil {
			ev := obs.Event{Cycle: in.k.M.Stats.Cycles, Type: obs.KindCrash, Arg: d.At, CPU: in.k.CPUID}
			if t := in.k.Current(); t != nil {
				ev.Thread, ev.PC = t.ID, t.Ctx.PC
			}
			tr.Event(ev)
		}
		in.crashed(d)
		in.out.Crashes++
		return true
	}
	if fin {
		in.done = true
		in.runErr = err
	}
	return false
}

// life runs the current life until it crashes or the run ends.
func (in *rebootInstance) life() error {
	for !in.done {
		if in.step() {
			return kernel.ErrMachineCrash
		}
	}
	return in.runErr
}

func (in *rebootInstance) RunTo(at uint64) bool {
	for !in.done && in.cursor() < at {
		if in.step() {
			in.reboot()
		}
	}
	return in.done
}

// RunToEnd runs each remaining life through the Run hook.
func (in *rebootInstance) RunToEnd() {
	if in.ended {
		return
	}
	in.ended = true
	for {
		in.opt.run(in.k, in.life)
		if in.done {
			break
		}
		in.reboot()
	}
	in.vio.terminal(in.runErr, -1)
	in.finish()
}

// CurrentID and ThreadAlive answer guest.WatchRME for the current boot.
func (in *rebootInstance) CurrentID() int           { return in.k.CurrentID() }
func (in *rebootInstance) ThreadAlive(tid int) bool { return in.k.ThreadAlive(tid) }

func (in *rebootInstance) Cursor() uint64          { return in.cursor() }
func (in *rebootInstance) Violations() []Violation { return in.vio.list }

func (in *rebootInstance) StateHash() ([32]byte, bool) {
	return hashRebooting(in.k, in.cursor(), in.next), true
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
	counterAddr, lockAddr, repairsAddr := prog.MustSymbol("counter"), prog.MustSymbol("lock"), prog.MustSymbol("repairs")
	perBoot := isa.Word(workers * iters)
	return &model{name: "persist", params: p, primary: ActCrashVolatile, new: func(ds []Decision, opt Options) (Instance, error) {
		for _, d := range ds {
			if d.Act != ActCrashVolatile {
				return nil, fmt.Errorf("mcheck: persist: only crash-volatile decisions apply (got %s)", d.Act)
			}
		}
		in := newRebootInstance(prog, ds, opt)
		// cStart is the surviving counter at the start of the current
		// boot (the image's 0 on the first); the final counter must be
		// exactly cStart + perBoot.
		var cStart isa.Word
		// The bounded-durability-loss invariant at this persist boundary.
		in.audit = func(Decision) {
			vol := int64(in.mem().Peek(counterAddr))
			nvm := int64(in.mem().NVPeek(counterAddr))
			in.out.MaxLoss = max(in.out.MaxLoss, vol-nvm)
			if vol-nvm > 1 {
				in.vio.add("persist-loss",
					"crash at persist op %d: counter is %d volatile but %d in NVM — %d increments lost, bound is 1",
					in.cursor(), vol, nvm, vol-nvm)
			}
		}
		in.crashed = func(Decision) { cStart = in.mem().Peek(counterAddr) }
		in.finish = func() {
			got := in.mem().Peek(counterAddr)
			if want := cStart + perBoot; got != want {
				in.vio.add("counter-exact", "counter = %d after boot %d, want %d (%d survived + %d new)",
					got, in.next+1, want, cStart, perBoot)
			}
			if held := guest.HeldLock(in.mem().Peek(lockAddr)); held != "" {
				in.vio.add("lock-discipline", "%s after the final boot completed", held)
			}
			in.out.Repairs = uint64(in.mem().Peek(repairsAddr))
		}
		// Installed once, on the shared memory, so the watchpoints survive
		// reboots; the instance answers for whichever kernel is running.
		// Repair is admitted: main (thread 0, alone) frees a crashed boot's
		// lock with the epoch bumped before any worker exists.
		in.boot()
		guest.WatchRME(in.mem(), prog, in, true, in.vio.breach)
		return in, nil
	}}, nil
}

package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/mcheck"
	"repro/internal/qlock"
	"repro/internal/resilience"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// runCounter is -demo counter: the shared-counter workload under -mech.
func runCounter(w io.Writer, o options, ob *observer) error {
	m, err := lookup("-mech", o.mech, guest.Mechanism.String,
		guest.MechNone, guest.MechRegistered, guest.MechDesignated, guest.MechEmul,
		guest.MechInterlocked, guest.MechLockB, guest.MechUserLevel,
		guest.MechLamportA, guest.MechLamportB, guest.MechTaosMutex)
	if err != nil {
		return err
	}
	return runKernel(w, o, ob, guest.MutexCounterProgram(m, o.workers, o.iters), func(mem *vmach.Memory, prog *asm.Program) {
		got, want := mem.Peek(prog.MustSymbol("counter")), uint32(o.workers*o.iters)
		status := "CORRECT"
		if got != want {
			status = "LOST UPDATES"
		}
		fmt.Fprintf(w, "counter:       %d / %d  [%s]\n", got, want, status)
	})
}

// runRecoverable is -demo recoverable: the owner+epoch mutex, whose
// survivors repair a lock orphaned by a -kill-at thread death.
func runRecoverable(w io.Writer, o options, ob *observer) error {
	return runKernel(w, o, ob, guest.RecoverableCounterProgram(o.workers, o.iters), func(mem *vmach.Memory, prog *asm.Program) {
		fmt.Fprintf(w, "counter:       %d (max %d; killed threads stop counting)\n",
			mem.Peek(prog.MustSymbol("counter")), o.workers*o.iters)
		printLock(w, mem, prog)
	})
}

// printLock prints a recoverable lock word and its repair count.
func printLock(w io.Writer, mem *vmach.Memory, prog *asm.Program) {
	lw := mem.Peek(prog.MustSymbol("lock"))
	fmt.Fprintf(w, "lock word:     %#x (owner %d, epoch %d), repairs %d\n",
		lw, guest.LockOwner(lw), guest.LockEpoch(lw), mem.Peek(prog.MustSymbol("repairs")))
}

// runKernel runs src (or the -restore snapshot) on the uniprocessor
// kernel the -arch/-strategy/-check/-watchdog flags configure, with the
// -kill-at/-crash-at faults and -checkpoint snapshots, and prints the
// kernel statistics; report, if set, adds the demo's own final state.
func runKernel(w io.Writer, o options, ob *observer, src string, report func(*vmach.Memory, *asm.Program)) error {
	prof := arch.ByName(o.arch)
	if prof == nil {
		return fmt.Errorf("unknown architecture %q (try -list)", o.arch)
	}
	strat, err := lookup[kernel.Strategy]("-strategy", o.strategy, kernel.Strategy.Name,
		kernel.NoRecovery{}, &kernel.Registration{}, &kernel.Designated{}, &kernel.UserLevel{})
	if err != nil {
		return err
	}
	at, err := lookup("-check", o.checkAt, kernel.CheckTime.String, kernel.CheckAtSuspend, kernel.CheckAtResume)
	if err != nil {
		return err
	}
	policy, err := lookup("-watchdog", o.watchdog, chaos.WatchdogPolicy.String,
		chaos.WatchdogOff, chaos.WatchdogExtend, chaos.WatchdogAbort)
	if err != nil {
		return err
	}
	faults, err := faultSchedule(o, chaos.Action{Crash: chaos.CrashClean})
	if err != nil {
		return err
	}
	cfg := kernel.Config{Profile: prof, Strategy: strat, CheckAt: at, Quantum: o.quantum, MaxCycles: o.timeout,
		Watchdog: chaos.Watchdog{Policy: policy, MaxRestarts: o.maxRestarts}, Faults: faults}

	var k *kernel.Kernel
	var prog *asm.Program
	if o.restore != "" {
		raw, err := os.ReadFile(o.restore)
		if err != nil {
			return err
		}
		snap, err := kernel.DecodeSnapshot(raw)
		if err != nil {
			return err
		}
		if k, err = kernel.Restore(cfg, snap); err != nil {
			return err
		}
		fmt.Fprintf(w, "restored:      %s (%d threads at step cursor %d)\n",
			o.restore, len(k.Threads()), snap.Steps)
	} else {
		if prog, err = asm.Assemble(src); err != nil {
			return err
		}
		if _, ok := prog.SymbolAddr("main"); !ok {
			return fmt.Errorf("program has no main symbol")
		}
		k = kernel.Boot(cfg, prog, guest.StackTop(0))
	}
	k.AttachProfiler(ob.Profiler, prog)

	var runErr error
	if o.checkpointAt > 0 {
		var finished bool
		ob.h.Attach(k)
		if finished, runErr = k.RunSteps(o.checkpointAt); !finished {
			if err := writeCheckpoint(w, k, o.checkpoint, "at step"); err != nil {
				return err
			}
			runErr = k.Run()
		}
	} else {
		runErr = ob.h.Run(k)
	}
	if errors.Is(runErr, kernel.ErrMachineCrash) && o.checkpoint != "" && o.checkpointAt == 0 {
		if err := writeCheckpoint(w, k, o.checkpoint, "at crash"); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "profile:       %s\n", prof)
	fmt.Fprintf(w, "strategy:      %s (check at %s)\n", strat.Name(), at)
	fmt.Fprintf(w, "instructions:  %d\n", k.M.Stats.Instructions)
	fmt.Fprintf(w, "cycles:        %d (%.2f us)\n", k.M.Stats.Cycles, k.Micros())
	fmt.Fprintf(w, "suspensions:   %d (preemptions %d, page faults %d)\n",
		k.Stats.Suspensions, k.Stats.Preemptions, k.Stats.PageFaults)
	fmt.Fprintf(w, "restarts:      %d (check rejects %d)\n", k.Stats.Restarts, k.Stats.CheckRejects)
	fmt.Fprintf(w, "emul traps:    %d, syscalls %d, switches %d\n",
		k.Stats.EmulTraps, k.Stats.Syscalls, k.Stats.Switches)
	if k.Stats.WatchdogExtends > 0 || k.Stats.WatchdogAborts > 0 {
		fmt.Fprintf(w, "watchdog:      %d extensions, %d aborts\n",
			k.Stats.WatchdogExtends, k.Stats.WatchdogAborts)
	}
	if k.Stats.Kills > 0 {
		fmt.Fprintf(w, "kills:         %d\n", k.Stats.Kills)
	}
	if prog != nil && report != nil {
		report(k.M.Mem, prog)
	}
	if len(k.Console) > 0 {
		fmt.Fprintf(w, "console:       %v\n", k.Console)
	}
	if errors.Is(runErr, kernel.ErrLivelock) || errors.Is(runErr, kernel.ErrBudget) {
		// A livelocked or overrunning guest: name each thread's last PC and
		// restart count so the offending sequence is identifiable.
		fmt.Fprintf(w, "\nguest did not finish (%v); thread states:\n", runErr)
		for _, th := range k.Threads() {
			fmt.Fprintf(w, "  thread %-2d %-8s pc=%#08x restarts=%d suspensions=%d\n",
				th.ID, th.State, th.Ctx.PC, th.Restarts, th.Suspensions)
		}
	}
	return runErr
}

// writeCheckpoint encodes the kernel's state into the -checkpoint file.
func writeCheckpoint(w io.Writer, k *kernel.Kernel, path, why string) error {
	if path == "" {
		return errors.New("-checkpoint-at given without -checkpoint file")
	}
	enc := k.Capture().Encode()
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint:    %s (%d bytes, %s %d); replay with -restore %s\n",
		path, len(enc), why, k.M.Stats.Instructions, path)
	return nil
}

// crashReboot runs prog on a kernel.Lives machine under the designated
// strategy (checked at resume). With -crash-at, the injected crash
// DISCARDS the volatile tier (or tears it, with -torn); dump then reads
// the NVM image the crash left, and the same machine warm-reboots over
// it — no reload, so the lock and log state it recovers from are the
// survivors'. Then report prints the demo's final state, and the persist
// costs of the last boot follow.
func crashReboot(w io.Writer, o options, ob *observer, wd chaos.Watchdog, prog *asm.Program,
	dump func(*vmach.Memory), report func(*vmach.Memory) error) error {
	l := kernel.Lives{Prog: prog, StackTop: guest.StackTop(0),
		Config: kernel.Config{Strategy: &kernel.Designated{}, CheckAt: kernel.CheckAtResume,
			Quantum: o.quantum, MaxCycles: o.timeout, Watchdog: wd},
		Runner: func(k *kernel.Kernel) error {
			k.AttachProfiler(ob.Profiler, prog)
			return ob.h.Run(k)
		}}
	var faults chaos.Injector
	if o.crashAt > 0 {
		a := chaos.Action{Crash: chaos.CrashVolatile}
		if o.torn {
			a.Crash = chaos.CrashTorn
		}
		faults = chaos.OneShot{Point: chaos.PointStep, N: o.crashAt, Action: a}
	}
	k := l.Boot(faults)
	err := l.Run(k)
	if o.crashAt > 0 {
		if !errors.Is(err, kernel.ErrMachineCrash) {
			return fmt.Errorf("the guest finished before step %d (run = %v); try a smaller -crash-at", o.crashAt, err)
		}
		dump(l.Memory())
		fmt.Fprintf(w, "boot 1:        %d flushes, %d fences, %d lines persisted\n",
			k.M.Stats.Flushes, k.M.Stats.Fences, k.M.Stats.LinesPersisted)
		k = l.Boot(nil)
		if err := l.Run(k); err != nil {
			return fmt.Errorf("reboot run: %w", err)
		}
	} else if err != nil {
		return err
	}
	err = report(l.Memory())
	fmt.Fprintf(w, "persists:      %d flushes, %d fences, %d lines drained (%d cycles)\n",
		k.M.Stats.Flushes, k.M.Stats.Fences, k.M.Stats.LinesPersisted, k.M.Stats.PersistCycles)
	return err
}

// runPersistent is -demo persistent: the crash-consistent counter guest,
// which after a -crash-at reboot repairs the lock it finds in NVM and
// completes the workload exactly.
func runPersistent(w io.Writer, o options, ob *observer) error {
	prog, err := asm.Assemble(guest.PersistentCounterProgram(o.workers, o.iters))
	if err != nil {
		return err
	}
	counter := prog.MustSymbol("counter")
	fmt.Fprintf(w, "demo:          persistent (%d workers x %d iters, %d-byte persistence lines)\n",
		o.workers, o.iters, vmach.LineBytes)
	// want is the exact final counter: the reboot reruns the full workload
	// on top of whatever the NVM image preserved.
	want, status := uint32(o.workers*o.iters), "CORRECT"
	return crashReboot(w, o, ob, chaos.Watchdog{Policy: chaos.WatchdogExtend}, prog,
		func(mem *vmach.Memory) {
			c0 := mem.Peek(counter)
			fmt.Fprintf(w, "crash:         volatile tier discarded at step %d\n", o.crashAt)
			fmt.Fprintf(w, "NVM state:     counter=%d lock=%#x repairs=%d\n",
				c0, mem.Peek(prog.MustSymbol("lock")), mem.Peek(prog.MustSymbol("repairs")))
			want, status = want+c0, "RECOVERED"
		},
		func(mem *vmach.Memory) error {
			got := mem.Peek(counter)
			if got != want {
				status = "LOST UPDATES"
			}
			fmt.Fprintf(w, "counter:       %d / %d  [%s]\n", got, want, status)
			printLock(w, mem, prog)
			return nil
		})
}

// runJournal is -demo journal: two NVM words incremented inside a logged
// transaction. After a -crash-at it decides — from the surviving log
// record alone, exactly as the guest's recovery path will — whether the
// in-flight transaction committed, then verifies the recovered state.
// With -log nofence the record never reaches NVM, and a torn crash that
// splits the two data write-backs leaves the words unequal with nothing
// to repair them from: the demo reports the inconsistency.
func runJournal(w io.Writer, o options, ob *observer) error {
	src, ok := guest.JournalSource(o.logMode, o.iters)
	if !ok {
		return fmt.Errorf("-demo journal: unknown -log %q (redo, undo, nofence)", o.logMode)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	va, vb := prog.MustSymbol("va"), prog.MustSymbol("vb")
	fmt.Fprintf(w, "demo:          journal (-log %s, target %d, %d-byte persistence lines)\n",
		o.logMode, o.iters, vmach.LineBytes)
	status := "CONSISTENT"
	return crashReboot(w, o, ob, chaos.Watchdog{}, prog,
		func(mem *vmach.Memory) {
			kind := "clean"
			if o.torn {
				kind = "torn"
			}
			r := guest.ReadJournal(mem.Peek, prog)
			verdict := "stale (seq != applied+1): nothing in flight"
			if !r.Whole() {
				verdict = "invalid checksum: torn or never flushed, data untouched"
			} else if r.Commits() {
				verdict = "commits: recovery will repair va and vb from it"
			}
			fmt.Fprintf(w, "crash:         %s, volatile tier discarded at step %d\n", kind, o.crashAt)
			fmt.Fprintf(w, "NVM state:     va=%d vb=%d applied=%d\n", mem.Peek(va), mem.Peek(vb), r.Applied)
			fmt.Fprintf(w, "NVM record:    seq=%d xa=%d xb=%d ck=%#x — %s\n", r.Seq, r.XA, r.XB, r.Ck, verdict)
			status = "RECOVERED"
		},
		func(mem *vmach.Memory) error {
			a, b := mem.Peek(va), mem.Peek(vb)
			if a != b || a != uint32(o.iters) {
				status = "INCONSISTENT"
			}
			fmt.Fprintf(w, "va / vb:       %d / %d (target %d)  [%s]\n", a, b, o.iters, status)
			fmt.Fprintf(w, "transactions:  %d applied\n", guest.ReadJournal(mem.Peek, prog).Applied)
			if status == "INCONSISTENT" {
				return fmt.Errorf("journal %s: recovered state is inconsistent (va=%d vb=%d)", o.logMode, a, b)
			}
			return nil
		})
}

// runSMP is -demo smp: the shared-counter workload on an N-CPU system,
// with -lock choosing the arbitration scheme. -kill-at and -crash-at
// strike the thread running on -kill-cpu.
func runSMP(w io.Writer, o options, ob *observer) error {
	lock, err := lookup("-lock", o.lock, guest.SMPLock.String,
		guest.SMPHybrid, guest.SMPSpin, guest.SMPLLSC, guest.SMPRASOnly)
	if err != nil {
		return err
	}
	faults, err := cpuFaults(o, chaos.Action{Crash: chaos.CrashClean})
	if err != nil {
		return err
	}
	sys, prog := bench.SMPCounterSystem(smp.Config{CPUs: o.cpus, Quantum: o.quantum,
		MaxCycles: o.timeout, Faults: faults}, lock, o.workers, o.iters)
	header := fmt.Sprintf("cpus:          %d (%s lock, %d workers x %d iters each)\n",
		o.cpus, lock, o.workers, o.iters)
	return runSystem(w, ob, sys, header, true, func() {
		got := sys.Mem.Peek(prog.MustSymbol("counter"))
		want := uint32(o.cpus * o.workers * o.iters)
		status := "CORRECT"
		if got != want {
			status = "LOST UPDATES"
			if faults != nil {
				status = "SHORT (killed threads stop counting)"
			}
		}
		fmt.Fprintf(w, "counter:       %d / %d  [%s]\n", got, want, status)
	})
}

// runServer is -demo server: the per-CPU request plane (or the mutex
// baseline, or the planted racy drain) with -workers clients per CPU
// each submitting -iters requests: per-CPU served counts, zero RMRs on
// the percpu path, and the exact request accounting.
func runServer(w io.Writer, o options, ob *observer) error {
	v, err := lookup("-variant", o.variant, guest.ServerVariant.String,
		guest.ServerPerCPU, guest.ServerMutex, guest.ServerRacyDrain)
	if err != nil {
		return err
	}
	if o.cpus < 1 {
		return errors.New("-cpus must be at least 1")
	}
	sys, prog, err := bench.ServerSystem(smp.Config{CPUs: o.cpus, Quantum: o.quantum,
		MaxCycles: o.timeout}, v, o.workers, o.iters)
	if err != nil {
		return err
	}
	header := fmt.Sprintf("cpus:          %d (%s request plane, %d clients x %d requests per CPU)\n",
		o.cpus, v, o.workers, o.iters)
	return runSystem(w, ob, sys, header, false, func() {
		served, batches := guest.ServerCounts(sys.Mem, prog, v, o.cpus)
		want := uint64(o.cpus * o.workers * o.iters)
		status := "ALL SERVED"
		if served != want {
			status = "REQUESTS LOST"
		}
		if batches > 0 {
			fmt.Fprintf(w, "batching:      %d drains, %.1f requests per batch\n",
				batches, float64(served)/float64(batches))
		}
		fmt.Fprintf(w, "served:        %d / %d  [%s]\n", served, want, status)
	})
}

// smpTraceLine is the trace line of the SMP demos, whose Chrome traces
// have one process group per CPU.
const smpTraceLine = "trace:         %s (%d events; one track per CPU in Perfetto)\n"

// runSystem runs an SMP system through the observer's harness, then
// prints header, one line per CPU (with its kill count if kills), the
// system totals and the demo's own tail.
func runSystem(w io.Writer, ob *observer, sys *smp.System, header string, kills bool, tail func()) error {
	ob.TraceLine = smpTraceLine
	runErr := ob.h.Run(sys)
	fmt.Fprint(w, header)
	for i, k := range sys.CPUs {
		fmt.Fprintf(w, "cpu%-2d          cycles %-10d restarts %-4d preemptions %-4d rmrs %-6d",
			i, k.M.Stats.Cycles, k.Stats.Restarts, k.Stats.Preemptions, k.M.Stats.RMRs)
		if kills {
			fmt.Fprintf(w, " kills %d", k.Stats.Kills)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "total:         %d cycles (%d wall), %d RMRs\n",
		sys.TotalCycles(), sys.MaxCycles(), sys.TotalRMRs())
	tail()
	return runErr
}

// runQlock is -demo qlock: one queue-lock zoo variant (-lock) on an
// N-CPU system, one contender per CPU doing -iters passages, in the
// -mode coherence model. -kill-at kills the thread on -kill-cpu, which
// the recoverable variant must repair; the printout accounts for every
// passage, repair, splice and fallback, plus the passage-latency
// quantiles the guest logged.
func runQlock(w io.Writer, o options, ob *observer) error {
	variant, err := lookup("-lock", o.lock, qlock.Variant.String,
		append(qlock.Variants(), qlock.RMCSUnspliced)...)
	if err != nil {
		return err
	}
	mode, err := lookup("-mode", o.smpMode, smp.Mode.String, smp.CC, smp.DSM)
	if err != nil {
		return err
	}
	faults, err := cpuFaults(o, chaos.Action{})
	if err != nil {
		return err
	}
	r, err := qlock.New(qlock.Config{Variant: variant, CPUs: o.cpus, Iters: o.iters,
		Mode: mode, Quantum: o.quantum, MaxCycles: o.timeout, Faults: faults})
	if err != nil {
		return err
	}
	ob.TraceLine = smpTraceLine
	runErr := ob.h.Run(r.Sys)

	fmt.Fprintf(w, "lock:          %s, %d CPUs x %d passages, %s mode\n",
		variant, o.cpus, o.iters, mode)
	for i, k := range r.Sys.CPUs {
		fmt.Fprintf(w, "cpu%-2d          cycles %-10d preemptions %-4d rmrs %-6d\n",
			i, k.M.Stats.Cycles, k.Stats.Preemptions, k.M.Stats.RMRs)
	}
	res, cerr := r.Collect()
	if res == nil {
		if cerr != nil {
			return cerr
		}
		return runErr
	}
	status := "EXACT"
	if cerr != nil {
		status = cerr.Error()
		if res.Counter == res.Passages+1 {
			status = "EXACT (one contender died inside its critical section)"
		}
	}
	fmt.Fprintf(w, "passages:      %d completed, counter %d  [%s]\n",
		res.Passages, res.Counter, status)
	fmt.Fprintf(w, "rmr:           %d total, %.3f per passage\n",
		res.RMRs, float64(res.RMRs)/float64(max(res.Passages, 1)))
	fmt.Fprintf(w, "latency:       p50 %d  p95 %d  p99 %d cycles\n",
		res.Lat.P50(), res.Lat.P95(), res.Lat.P99())
	if res.Repairs+res.Splices+res.Fallback+res.Scans+res.Aborts > 0 {
		fmt.Fprintf(w, "recovery:      %d repairs, %d splices, %d fallbacks, %d scans, %d aborts\n",
			res.Repairs, res.Splices, res.Fallback, res.Scans, res.Aborts)
	}
	if res.Alive < o.cpus {
		fmt.Fprintf(w, "threads:       %d of %d survived\n", res.Alive, o.cpus)
	}
	if runErr != nil {
		return runErr
	}
	return cerr
}

// runResilience is -demo resilience: a supervised crash-restart campaign
// replayed from a one-line -plan, built exactly as TableResilience
// builds its campaign rows, so the plans the table prints replay their
// rows. Step plans drive the ISA resilient-server guest, persist and
// memop plans the uniproc uxserver plane. With no -plan, a 100-crash
// mixed step campaign is derived from a clean calibration run. -workers
// and -iters, when set, replace the table's workload size.
func runResilience(w io.Writer, o options, ob *observer) error {
	cfg := bench.DefaultResilienceConfig()
	cfg.MaxCycles = o.timeout
	if o.setFlags["workers"] {
		cfg.Workers, cfg.Clients = o.workers, o.workers
	}
	if o.setFlags["iters"] {
		cfg.Iters, cfg.Requests = o.iters, o.iters
	}
	var plan *chaos.CrashPlan
	var err error
	if o.plan != "" {
		plan, err = chaos.ParseCrashPlan(o.plan)
	} else {
		cfg.Crashes = 100
		plan, err = bench.CampaignPlan(&ob.h, cfg, chaos.PointStep)
	}
	if err != nil {
		return err
	}
	world, scfg := bench.ResilienceCampaign(&ob.h, cfg, plan)
	fmt.Fprintf(w, "plan:          %s\n", plan)
	out, err := resilience.Supervise(world, scfg)
	fmt.Fprintf(w, "campaign:      %v\n", out)
	if err != nil {
		return err
	}
	switch world := world.(type) {
	case *resilience.VMWorld:
		fmt.Fprintf(w, "repairs:       %d (final audit: exactly-once, WAL retired, lock free)\n", world.Repairs())
	case *resilience.ServerWorld:
		st := world.Stats()
		fmt.Fprintf(w, "server paths:  applies %d, dup acks %d, replayed %d, dedup skips %d, shed %d, timeouts %d\n",
			st.Applies, st.DupAcks, st.Replayed, st.ReplaySkips, st.Shed, st.Timeouts)
	}
	return nil
}

// runReplaySched re-executes a model-checker counterexample: the .sched
// file names the model and its forced decisions, so the run is exact —
// the same violation the checker found, now with the full observability
// stack attached (-trace-out for a Chrome trace of the failing
// interleaving).
func runReplaySched(w io.Writer, o options, ob *observer) error {
	s, err := mcheck.ReadFile(o.replaySched)
	if err != nil {
		return err
	}
	m, err := mcheck.BuildSchedule(s)
	if err != nil {
		return err
	}
	vio, err := mcheck.RunOnce(m, s.Decisions, mcheck.Options{Tracer: ob.Sink()})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schedule:      %s\n", o.replaySched)
	fmt.Fprintf(w, "model:         %s [%s]\n", s.Model, s.ParamString())
	for _, d := range s.Decisions {
		fmt.Fprintf(w, "decision:      %s at ordinal %d\n", d.Act, d.At)
	}
	if s.Note != "" {
		fmt.Fprintf(w, "note:          %s\n", s.Note)
	}
	for _, v := range vio {
		fmt.Fprintf(w, "violation:     %v\n", v)
	}
	if len(vio) == 0 {
		fmt.Fprintf(w, "violations:    none reproduced\n")
	}
	return nil
}

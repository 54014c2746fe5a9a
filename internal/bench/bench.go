// Package bench is the experiment harness: it regenerates every table of
// the paper's evaluation (Tables 1-4 of §5-§6) plus the auxiliary
// observations (§5.3's lock-holdup analysis, §7's i860 lock bit, §4.1's
// PC-check placement), printing rows in the paper's shape. Each table
// runs every substrate it builds through a Harness, which traces and
// counts the runs.
//
// Absolute microseconds come from the simulator's cycle-cost model, so they
// will not match the 1992 hardware exactly; EXPERIMENTS.md records
// paper-vs-measured values and verifies that orderings and ratios hold.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/guest"
	"repro/internal/lamport"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
)

// noPreempt is a quantum long enough that timer preemption never fires
// during a microbenchmark (matching the paper's unloaded-system runs).
const noPreempt = 1 << 40

// runGuest assembles and runs a guest program to completion on a fresh
// kernel, returning the kernel for inspection.
func runGuest(h *Harness, prof *arch.Profile, strat kernel.Strategy, checkAt kernel.CheckTime,
	quantum uint64, src string) (*kernel.Kernel, error) {
	prog := guest.Assemble(src)
	k := kernel.Boot(kernel.Config{Profile: prof, Strategy: strat, CheckAt: checkAt, Quantum: quantum},
		prog, "main", guest.StackTop(0), true)
	if err := h.Run(k); err != nil {
		return k, fmt.Errorf("bench: %s: %w", prof.Name, err)
	}
	return k, nil
}

// strategyFor picks the kernel recovery strategy a mechanism needs.
func strategyFor(m guest.Mechanism) (kernel.Strategy, kernel.CheckTime) {
	switch m {
	case guest.MechRegistered:
		return &kernel.Registration{}, kernel.CheckAtSuspend // Mach checks early (§4.1)
	case guest.MechDesignated:
		return &kernel.Designated{}, kernel.CheckAtResume // Taos checks late (§4.1)
	case guest.MechUserLevel:
		return &kernel.UserLevel{}, kernel.CheckAtResume
	default:
		return kernel.NoRecovery{}, kernel.CheckAtSuspend
	}
}

// T1Row is one line of Table 1: the software mutual exclusion
// microbenchmark on the DECstation 5000/200.
type T1Row struct {
	Mechanism string  `json:"mechanism"`
	Micros    float64 `json:"micros"`
}

// Table1 reproduces Table 1: elapsed time per critical section (enter with
// Test-And-Set, increment a counter, leave by clearing), loop overhead
// subtracted, on the R3000 profile.
func Table1(h *Harness, iters int) ([]T1Row, error) {
	prof := arch.R3000()
	loop, err := runGuest(h, prof, kernel.NoRecovery{}, 0, noPreempt, guest.EmptyLoopProgram(iters))
	if err != nil {
		return nil, err
	}
	loopCycles := loop.M.Stats.Cycles

	mechs := []struct {
		name string
		m    guest.Mechanism
	}{
		{"Restartable Atomic Sequences (branch)", guest.MechRegistered},
		{"Restartable Atomic Sequences (inline)", guest.MechDesignated},
		{"Kernel Emulation", guest.MechEmul},
		{"Software-reservation (a)", guest.MechLamportA},
		{"Software-reservation (b)", guest.MechLamportB},
	}
	rows := make([]T1Row, 0, len(mechs))
	for _, mc := range mechs {
		strat, at := strategyFor(mc.m)
		k, err := runGuest(h, prof, strat, at, noPreempt, guest.MicrobenchProgram(mc.m, iters))
		if err != nil {
			return nil, err
		}
		per := prof.Micros(k.M.Stats.Cycles-loopCycles) / float64(iters)
		rows = append(rows, T1Row{mc.name, per})
	}
	return rows, nil
}

// T2Row is one line of Table 2: thread management operations under kernel
// emulation vs restartable atomic sequences.
type T2Row struct {
	Benchmark  string  `json:"benchmark"`
	EmulMicros float64 `json:"emul_micros"`
	RASMicros  float64 `json:"ras_micros"`
}

// table2Bench measures one thread-management benchmark: it returns elapsed
// cycles per operation for the given mechanism.
func table2Bench(h *Harness, name string, mech core.Mechanism, iters int) (float64, error) {
	prof := arch.R3000()
	proc := uniproc.New(uniproc.Config{Profile: prof, Quantum: noPreempt})
	pkg := cthreads.New(mech)
	var start, end uint64
	switch name {
	case "Spinlock":
		lock := pkg.NewSpinLock()
		proc.Go("main", func(e *uniproc.Env) {
			start = e.Now()
			for i := 0; i < iters; i++ {
				lock.Lock(e)
				lock.Unlock(e)
			}
			end = e.Now()
		})
	case "MutexLock":
		mu := pkg.NewMutex()
		proc.Go("main", func(e *uniproc.Env) {
			start = e.Now()
			for i := 0; i < iters; i++ {
				mu.Lock(e)
				mu.Unlock(e)
			}
			end = e.Now()
		})
	case "ForkTest":
		// Threads recursively forked in succession; each terminates right
		// after forking the next (§5.2).
		var spawn func(e *uniproc.Env, remaining int)
		spawn = func(e *uniproc.Env, remaining int) {
			if remaining == 0 {
				end = e.Now()
				return
			}
			pkg.Fork(e, "link", func(e *uniproc.Env) { spawn(e, remaining-1) })
		}
		proc.Go("root", func(e *uniproc.Env) {
			start = e.Now()
			spawn(e, iters)
		})
	case "PingPong":
		// Two threads alternating via a mutex and condition variable.
		mu := pkg.NewMutex()
		cond := pkg.NewCond()
		turn := core.Word(0)
		player := func(me core.Word) func(*uniproc.Env) {
			return func(e *uniproc.Env) {
				for i := 0; i < iters; i++ {
					mu.Lock(e)
					for e.Load(&turn) != me {
						cond.Wait(e, mu)
					}
					e.Store(&turn, 1-me)
					cond.Signal(e)
					mu.Unlock(e)
				}
			}
		}
		proc.Go("setup", func(e *uniproc.Env) {
			start = e.Now()
			a := pkg.Fork(e, "ping", player(0))
			b := pkg.Fork(e, "pong", player(1))
			a.Join(e)
			b.Join(e)
			end = e.Now()
		})
	default:
		return 0, fmt.Errorf("bench: unknown table 2 benchmark %q", name)
	}
	if err := h.Run(proc); err != nil {
		return 0, err
	}
	return prof.Micros(end-start) / float64(iters), nil
}

// Table2 reproduces Table 2.
func Table2(h *Harness, iters int) ([]T2Row, error) {
	prof := arch.R3000()
	var rows []T2Row
	for _, name := range []string{"Spinlock", "MutexLock", "ForkTest", "PingPong"} {
		emul, err := table2Bench(h, name, core.NewKernelEmul(prof), iters)
		if err != nil {
			return nil, err
		}
		ras, err := table2Bench(h, name, core.NewRAS(), iters)
		if err != nil {
			return nil, err
		}
		rows = append(rows, T2Row{name, emul, ras})
	}
	return rows, nil
}

// T4Row is one line of Table 4: hardware vs software Test-And-Set
// acquire/release across eight processor architectures.
type T4Row struct {
	Processor   string  `json:"processor"`
	Interlocked float64 `json:"interlocked"`
	Registered  float64 `json:"registered"`
	Linkage     float64 `json:"linkage"`
	Designated  float64 `json:"designated"`
}

// Table4 reproduces Table 4.
func Table4(h *Harness, iters int) ([]T4Row, error) {
	var rows []T4Row
	for _, prof := range arch.Table4() {
		loop, err := runGuest(h, prof, kernel.NoRecovery{}, 0, noPreempt, guest.EmptyLoopProgram(iters))
		if err != nil {
			return nil, err
		}
		loopCycles := loop.M.Stats.Cycles
		per := func(m guest.Mechanism) (float64, error) {
			strat, at := strategyFor(m)
			k, err := runGuest(h, prof, strat, at, noPreempt, guest.AcquireReleaseProgram(m, iters))
			if err != nil {
				return 0, err
			}
			return prof.Micros(k.M.Stats.Cycles-loopCycles) / float64(iters), nil
		}
		interlocked, err := per(guest.MechInterlocked)
		if err != nil {
			return nil, err
		}
		registered, err := per(guest.MechRegistered)
		if err != nil {
			return nil, err
		}
		designated, err := per(guest.MechDesignated)
		if err != nil {
			return nil, err
		}
		link, err := runGuest(h, prof, kernel.NoRecovery{}, 0, noPreempt, guest.LinkageProgram(iters))
		if err != nil {
			return nil, err
		}
		linkage := prof.Micros(link.M.Stats.Cycles-loopCycles) / float64(iters)
		rows = append(rows, T4Row{prof.Name, interlocked, registered, linkage, designated})
	}
	return rows, nil
}

// I860Row compares the i860's hardware restartable sequence (the lock bit,
// §7) with software approaches on the i860 profile.
type I860Row struct {
	Mechanism string  `json:"mechanism"`
	Micros    float64 `json:"micros"`
}

// TableI860 reproduces the §7 observation that the i860's hardware support
// "offers little performance advantage over software techniques".
func TableI860(h *Harness, iters int) ([]I860Row, error) {
	prof := arch.I860()
	loop, err := runGuest(h, prof, kernel.NoRecovery{}, 0, noPreempt, guest.EmptyLoopProgram(iters))
	if err != nil {
		return nil, err
	}
	loopCycles := loop.M.Stats.Cycles
	var rows []I860Row
	for _, mc := range []struct {
		name string
		m    guest.Mechanism
	}{
		{"Interlocked instruction", guest.MechInterlocked},
		{"Hardware lock bit (lockb)", guest.MechLockB},
		{"Designated sequence", guest.MechDesignated},
	} {
		strat, at := strategyFor(mc.m)
		k, err := runGuest(h, prof, strat, at, noPreempt, guest.AcquireReleaseProgram(mc.m, iters))
		if err != nil {
			return nil, err
		}
		rows = append(rows, I860Row{mc.name, prof.Micros(k.M.Stats.Cycles-loopCycles) / float64(iters)})
	}
	return rows, nil
}

// LamportRow compares the two software-reservation protocols at the
// uniproc level (complementing Table 1's guest-level measurement).
type LamportRow struct {
	Protocol string  `json:"protocol"`
	Micros   float64 `json:"micros"`
}

// TableLamport measures protocol (a) vs protocol (b) per critical section.
func TableLamport(h *Harness, iters int) ([]LamportRow, error) {
	prof := arch.R3000()
	run := func(lock core.Locker) (float64, error) {
		proc := uniproc.New(uniproc.Config{Profile: prof, Quantum: noPreempt})
		var counter core.Word
		var start, end uint64
		proc.Go("main", func(e *uniproc.Env) {
			start = e.Now()
			for i := 0; i < iters; i++ {
				lock.Acquire(e)
				v := e.Load(&counter)
				e.ChargeALU(1)
				e.Store(&counter, v+1)
				lock.Release(e)
			}
			end = e.Now()
		})
		if err := h.Run(proc); err != nil {
			return 0, err
		}
		return prof.Micros(end-start) / float64(iters), nil
	}
	a, err := run(lamport.NewDirectLock(2))
	if err != nil {
		return nil, err
	}
	b, err := run(core.NewTASLock(lamport.NewMeta(2)))
	if err != nil {
		return nil, err
	}
	return []LamportRow{{"Lamport direct (a)", a}, {"Lamport bundled meta (b)", b}}, nil
}

// Format helpers ------------------------------------------------------------

// FormatTable1 renders Table 1 in the paper's shape.
func FormatTable1(rows []T1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %10s\n", "Software Mechanism", "Time (us)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %10.2f\n", r.Mechanism, r.Micros)
	}
	return b.String()
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []T2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %16s %16s\n", "Benchmark", "Emulation (us)", "R.A.S. (us)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %16.2f %16.2f\n", r.Benchmark, r.EmulMicros, r.RASMicros)
	}
	return b.String()
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []T4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %9s %12s\n",
		"Processor", "Interlocked", "Registered", "Linkage", "Designated")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.2f %12.2f %9.2f %12.2f\n",
			r.Processor, r.Interlocked, r.Registered, r.Linkage, r.Designated)
	}
	return b.String()
}

// FormatI860 renders the i860 comparison.
func FormatI860(rows []I860Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s\n", "i860 Mechanism", "Time (us)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %10.2f\n", r.Mechanism, r.Micros)
	}
	return b.String()
}

// FormatLamport renders the Lamport protocol comparison.
func FormatLamport(rows []LamportRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s\n", "Reservation Protocol", "Time (us)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %10.2f\n", r.Protocol, r.Micros)
	}
	return b.String()
}

package bench

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/mcheck"
	"repro/internal/uniproc"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// PersistConfig parametrizes the persistence table (experiment E23): the
// crash-at-persist-boundary sweeps on both substrates, the under-flushed
// control, and the exhaustive flush-boundary walk.
type PersistConfig struct {
	Seed uint64
	// Crashes is the per-substrate number of seeded volatile-crash points.
	Crashes   int
	Workers   int
	Iters     int
	MaxCycles uint64
}

// DefaultPersistConfig returns the configuration `rasbench -table persist`
// and `make persist` run.
func DefaultPersistConfig() PersistConfig {
	return PersistConfig{Seed: 1, Crashes: 24, Workers: 2, Iters: 6}
}

// PersistRow is one scenario outcome of the persistence table.
type PersistRow struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Crashes  int    `json:"crashes"`
	Repairs  uint64 `json:"repairs"`
	// MaxLoss is the largest number of committed increments a single
	// crash discarded; the well-flushed protocol bounds it at 1.
	MaxLoss int64  `json:"max_loss"`
	Outcome string `json:"outcome"`
}

// persistKernelConfig is the recovery-capable kernel configuration the
// vmach sweeps run under; mirror of the persistence test harness.
func persistKernelConfig(mem *vmach.Memory, faults chaos.Injector, maxCycles uint64) kernel.Config {
	return kernel.Config{
		Strategy:  &kernel.Designated{},
		CheckAt:   kernel.CheckAtResume,
		Quantum:   300,
		Memory:    mem,
		Faults:    faults,
		MaxCycles: maxCycles,
		Watchdog:  chaos.Watchdog{Policy: chaos.WatchdogExtend},
	}
}

// vmachPersistSweep crashes src at Crashes seeded step ordinals with the
// volatile tier discarded, then reboots the same binary over the surviving
// memory. For the well-flushed program every crash must lose at most one
// increment and every reboot must complete the exact workload; for the
// under-flushed control the sweep instead reports the worst loss it saw.
func vmachPersistSweep(h *Harness, cfg PersistConfig, scenario, src string, wellFlushed bool, salt uint64) (PersistRow, error) {
	prog := guest.Assemble(src)
	fail := func(format string, args ...any) (PersistRow, error) {
		return PersistRow{}, fmt.Errorf(scenario+": "+format+" (repro: %s)",
			append(args, tableRepro("persist", cfg.Seed))...)
	}
	boot := func(mem *vmach.Memory, faults chaos.Injector, load bool) *kernel.Kernel {
		return kernel.Boot(persistKernelConfig(mem, faults, cfg.MaxCycles),
			prog, "main", guest.StackTop(0), load)
	}

	// Calibrate the step span on a clean run.
	calMem := vmach.NewMemory()
	calMem.EnablePersistence()
	cal := boot(calMem, nil, true)
	if err := h.Run(cal); err != nil {
		return fail("calibration: %v", err)
	}
	span := cal.Steps()

	counterAddr := prog.MustSymbol("counter")
	want := isa.Word(cfg.Workers * cfg.Iters)
	var repairs uint64
	var maxLoss int64
	for c := 0; c < cfg.Crashes; c++ {
		at := chaos.Derive(cfg.Seed, salt, uint64(c))%span + 1
		mem := vmach.NewMemory()
		mem.EnablePersistence()
		committed := 0
		k := boot(mem, chaos.OneShot{Point: chaos.PointStep, N: at,
			Action: chaos.Action{CrashVolatile: true}}, true)
		mem.Watch(counterAddr, func(old, new isa.Word) { committed++ })
		if err := h.Run(k); !errors.Is(err, kernel.ErrMachineCrash) {
			return fail("crash %d at step %d: run = %v", c, at, err)
		}
		// The injected crash already discarded the volatile tier.
		c0 := mem.Peek(counterAddr)
		if loss := int64(committed) - int64(c0); loss > maxLoss {
			maxLoss = loss
		}
		if wellFlushed && int(c0) < committed-1 {
			return fail("crash %d at step %d: NVM counter %d but %d committed — lost more than one", c, at, c0, committed)
		}
		// Reboot the same binary over the surviving memory: no reload, the
		// image and the recovery state are both in NVM.
		k2 := boot(mem, nil, false)
		if err := h.Run(k2); err != nil {
			return fail("crash %d at step %d: reboot run: %v", c, at, err)
		}
		if got := mem.Peek(counterAddr); got != c0+want {
			return fail("crash %d at step %d: counter after reboot = %d, want %d", c, at, got, c0+want)
		}
		if owner := mem.Peek(prog.MustSymbol("lock")) & 0xFFFF; owner != 0 {
			return fail("crash %d at step %d: lock still owned by %d after reboot", c, at, owner)
		}
		repairs += uint64(mem.Peek(prog.MustSymbol("repairs")))
	}
	outcome := "loss <= 1, exact recovery"
	if !wellFlushed {
		if maxLoss <= 1 {
			return fail("control kept its counter (max loss %d); the planted bug is gone", maxLoss)
		}
		outcome = "loss detected (control)"
	}
	return PersistRow{Scenario: scenario, Seed: cfg.Seed, Crashes: cfg.Crashes,
		Repairs: repairs, MaxLoss: maxLoss, Outcome: outcome}, nil
}

// uniprocPersistSweep is the runtime-layer sweep: core.PersistentMutex
// plus a caller-persisted counter, crashed at seeded memory-operation
// ordinals and recovered on a fresh processor from word contents alone.
func uniprocPersistSweep(h *Harness, cfg PersistConfig) (PersistRow, error) {
	fail := func(format string, args ...any) (PersistRow, error) {
		return PersistRow{}, fmt.Errorf("uniproc/crash-sweep: "+format+" (repro: %s)",
			append(args, tableRepro("persist", cfg.Seed))...)
	}
	workload := func(mu *core.PersistentMutex, counter *core.Word, committed *int) func(*uniproc.Env) {
		return func(e *uniproc.Env) {
			for i := 0; i < cfg.Iters; i++ {
				mu.Acquire(e)
				v := e.Load(counter)
				e.Store(counter, v+1)
				*committed++
				e.Flush(counter)
				e.Fence()
				mu.Release(e)
			}
		}
	}
	newProc := func(faults chaos.Injector) *uniproc.Processor {
		p := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles, Faults: faults})
		p.EnablePersistence()
		return p
	}

	cal := newProc(nil)
	calMu, calCounter, calN := core.NewPersistentMutex(), core.Word(0), 0
	cal.Go("main", func(e *uniproc.Env) {
		for w := 0; w < cfg.Workers; w++ {
			e.Fork("worker", workload(calMu, &calCounter, &calN))
		}
	})
	if err := h.Run(cal); err != nil {
		return fail("calibration: %v", err)
	}
	span := cal.MemOps()

	var repairs uint64
	var maxLoss int64
	for c := 0; c < cfg.Crashes; c++ {
		at := chaos.Derive(cfg.Seed, 0x5A, uint64(c))%span + 1
		mu := core.NewPersistentMutex()
		var counter core.Word
		committed := 0
		p1 := newProc(chaos.OneShot{Point: chaos.PointMemOp, N: at,
			Action: chaos.Action{CrashVolatile: true}})
		p1.Go("main", func(e *uniproc.Env) {
			for w := 0; w < cfg.Workers; w++ {
				e.Fork("worker", workload(mu, &counter, &committed))
			}
		})
		if err := h.Run(p1); !errors.Is(err, uniproc.ErrMachineCrash) {
			return fail("crash %d at memop %d: run = %v", c, at, err)
		}
		c0 := counter
		if loss := int64(committed) - int64(c0); loss > maxLoss {
			maxLoss = loss
		}
		if int(c0) < committed-1 {
			return fail("crash %d at memop %d: NVM counter %d but %d committed", c, at, c0, committed)
		}
		p2 := newProc(nil)
		p2.Go("main", func(e *uniproc.Env) {
			mu.Recover(e)
			for w := 0; w < cfg.Workers; w++ {
				e.Fork("worker", workload(mu, &counter, &committed))
			}
		})
		if err := h.Run(p2); err != nil {
			return fail("crash %d at memop %d: reboot run: %v", c, at, err)
		}
		if want := c0 + core.Word(cfg.Workers*cfg.Iters); counter != want {
			return fail("crash %d at memop %d: counter after reboot = %d, want %d", c, at, counter, want)
		}
		repairs += p2.Stats.Repairs
	}
	return PersistRow{Scenario: "uniproc/crash-sweep", Seed: cfg.Seed, Crashes: cfg.Crashes,
		Repairs: repairs, MaxLoss: maxLoss, Outcome: "loss <= 1, exact recovery"}, nil
}

// TablePersist runs the NVRAM persistence validation (E23):
//
//   - vmach crash sweep: the persistent counter guest crashed (volatile
//     tier discarded) at seeded instruction ordinals, rebooted over the
//     surviving NVM, bounded-loss and exact-recovery checked per crash;
//   - vmach under-flush control: the same sweep over the deliberately
//     under-flushed variant must observe a loss greater than one;
//   - uniproc crash sweep: core.PersistentMutex with a caller-persisted
//     counter, same protocol at memory-operation granularity;
//   - flush-boundary walk: the model checker's exhaustive K=1 enumeration
//     of a volatile crash at EVERY persist-operation boundary, which must
//     pass with zero violations.
//
// Any failure is returned as an error naming the seed that reproduces it.
func TablePersist(h *Harness, cfg PersistConfig) ([]PersistRow, error) {
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	var rows []PersistRow

	row, err := vmachPersistSweep(h, cfg, "vmach/crash-sweep",
		guest.PersistentCounterProgram(cfg.Workers, cfg.Iters), true, 0x58)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = vmachPersistSweep(h, cfg, "vmach/underflush-control",
		guest.UnderflushedCounterProgram(cfg.Workers, cfg.Iters), false, 0x59)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = uniprocPersistSweep(h, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Exhaustive flush-boundary walk via the model checker.
	m, err := mcheck.BuildModel("persist", map[string]string{"workers": "1", "iters": "2"})
	if err != nil {
		return nil, err
	}
	e := &mcheck.Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		return nil, err
	}
	if !rep.Passed() {
		return nil, fmt.Errorf("mcheck/flush-boundaries: %v (repro: %s)", rep, tableRepro("persist", cfg.Seed))
	}
	rows = append(rows, PersistRow{Scenario: "mcheck/flush-boundaries",
		Crashes: rep.Schedules - 1, MaxLoss: 0,
		Outcome: "exhaustive K=1, zero violations"})
	return rows, nil
}

// FormatPersist renders the persistence table.
func FormatPersist(rows []PersistRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-10s %8s %8s %8s  %s\n",
		"Scenario", "Seed", "Crashes", "Repairs", "MaxLoss", "Outcome")
	for _, r := range rows {
		seed := "-"
		if r.Seed != 0 {
			seed = fmt.Sprintf("%#x", r.Seed)
		}
		fmt.Fprintf(&b, "%-26s %-10s %8d %8d %8d  %s\n",
			r.Scenario, seed, r.Crashes, r.Repairs, r.MaxLoss, r.Outcome)
	}
	return b.String()
}

package bench

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
)

// ChaosConfig parametrizes the chaos sweep.
type ChaosConfig struct {
	Seed    uint64    // master seed; per-scenario seeds are derived from it
	Levels  []float64 // fault-intensity levels for the sweep scenarios
	Seeds   int       // derived seeds per (scenario, level)
	Workers int
	Iters   int
	// MaxCycles bounds every individual run (the -timeout flag); 0 uses
	// each substrate's default.
	MaxCycles uint64
}

// DefaultChaosConfig returns the configuration `rasbench -table chaos` and
// `make chaos` run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:    1,
		Levels:  []float64{0.25, 0.5, 1},
		Seeds:   3,
		Workers: 3,
		Iters:   120,
	}
}

// tableRepro is the copy-paste command that re-runs a bench table with
// the configuration that just failed. Deterministic scenarios need
// nothing beyond the table and seed; plan-driven sweeps use the richer
// chaos.Plan.Repro instead.
func tableRepro(table string, seed uint64) string {
	return fmt.Sprintf("go run ./cmd/rasbench -table %s -seed %#x", table, seed)
}

// ChaosRow is one scenario outcome of the chaos table.
type ChaosRow struct {
	Scenario string  `json:"scenario"`
	Seed     uint64  `json:"seed"`
	Level    float64 `json:"level"`
	Injected uint64  `json:"injected"`
	Restarts uint64  `json:"restarts"`
	Extends  uint64  `json:"extends"` // watchdog quantum extensions
	Aborts   uint64  `json:"aborts"`  // watchdog aborts (expected ones only)
	Outcome  string  `json:"outcome"`
}

// TableChaos runs the seeded fault-injection sweep on both substrates:
//
//   - vmach sweeps: the ISA-level kernel under injected preemptions,
//     spurious suspensions, page evictions and timeslice jitter, for both
//     recovery strategies — mutual exclusion must hold on every schedule;
//   - vmach livelock scenarios: a quantum too short for the designated
//     sequence (§3.1) — the watchdog must either abort with a diagnostic or
//     extend the slice so the run completes;
//   - uniproc sweep and degradation: the runtime layer under memory-op
//     injection, plus the adaptive RAS-to-emulation demotion under a
//     livelocking quantum;
//   - recognizer mutants: corrupted and landmark-stripped designated
//     sequences fed to the two-stage check, which must never roll a PC back
//     outside a true sequence.
//
// Any failure is returned as an error carrying the one-line seed reproducer.
func TableChaos(h *Harness, cfg ChaosConfig) ([]ChaosRow, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []float64{1}
	}
	var rows []ChaosRow

	// vmach sweeps: both strategies, every (seed, level).
	vmachSweeps := []struct {
		name    string
		strat   func() kernel.Strategy
		at      kernel.CheckTime
		mech    guest.Mechanism
		quantum uint64
	}{
		{"vmach/designated", func() kernel.Strategy { return &kernel.Designated{} },
			kernel.CheckAtResume, guest.MechDesignated, 900},
		{"vmach/registered", func() kernel.Strategy { return &kernel.Registration{} },
			kernel.CheckAtSuspend, guest.MechRegistered, 700},
	}
	for _, sc := range vmachSweeps {
		for _, level := range cfg.Levels {
			for s := 0; s < cfg.Seeds; s++ {
				seed := chaos.Derive(cfg.Seed, uint64(s)+1)
				plan := chaos.NewPlan(seed, level)
				k, counterAddr, want, err := vmachChaosRun(h, sc.strat(), sc.at, sc.mech,
					sc.quantum, cfg, plan, chaos.Watchdog{Policy: chaos.WatchdogExtend})
				if err != nil {
					return nil, fmt.Errorf("%s: %v (repro: %s)", sc.name, err, plan.Repro())
				}
				if got := k.M.Mem.Peek(counterAddr); got != want {
					return nil, fmt.Errorf("%s: counter %d, want %d — mutual exclusion violated (repro: %s)",
						sc.name, got, want, plan.Repro())
				}
				rows = append(rows, ChaosRow{
					Scenario: sc.name, Seed: seed, Level: plan.Level,
					Injected: k.Stats.Injected, Restarts: k.Stats.Restarts,
					Extends: k.Stats.WatchdogExtends, Outcome: "exact",
				})
			}
		}
	}

	// vmach livelock: quantum 3 cannot fit the 6-cycle designated sequence.
	{
		k, _, _, err := vmachChaosRun(h, &kernel.Designated{}, kernel.CheckAtResume,
			guest.MechDesignated, 3, ChaosConfig{Workers: 1, Iters: 1, MaxCycles: cfg.MaxCycles},
			nil, chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: 40})
		if !errors.Is(err, kernel.ErrLivelock) {
			return nil, fmt.Errorf("vmach/livelock-abort: watchdog missed the §3.1 livelock: %v (repro: %s)", err, tableRepro("chaos", cfg.Seed))
		}
		rows = append(rows, ChaosRow{
			Scenario: "vmach/livelock-abort", Restarts: k.Stats.Restarts,
			Aborts: k.Stats.WatchdogAborts, Outcome: "livelock caught",
		})
	}
	{
		k, counterAddr, want, err := vmachChaosRun(h, &kernel.Designated{}, kernel.CheckAtResume,
			guest.MechDesignated, 3, ChaosConfig{Workers: 1, Iters: 5, MaxCycles: cfg.MaxCycles},
			nil, chaos.Watchdog{Policy: chaos.WatchdogExtend, MaxRestarts: 12})
		if err != nil {
			return nil, fmt.Errorf("vmach/livelock-extend: %v (repro: %s)", err, tableRepro("chaos", cfg.Seed))
		}
		if got := k.M.Mem.Peek(counterAddr); got != want {
			return nil, fmt.Errorf("vmach/livelock-extend: counter %d, want %d (repro: %s)", got, want, tableRepro("chaos", cfg.Seed))
		}
		if k.Stats.WatchdogExtends == 0 {
			return nil, fmt.Errorf("vmach/livelock-extend: no extension granted (repro: %s)", tableRepro("chaos", cfg.Seed))
		}
		rows = append(rows, ChaosRow{
			Scenario: "vmach/livelock-extend", Restarts: k.Stats.Restarts,
			Extends: k.Stats.WatchdogExtends, Outcome: "extended, exact",
		})
	}

	// uniproc sweep: memory-op injection on the runtime layer.
	for _, level := range cfg.Levels {
		for s := 0; s < cfg.Seeds; s++ {
			seed := chaos.Derive(cfg.Seed, 0xF00D, uint64(s)+1)
			plan := chaos.NewPlan(seed, level)
			proc, counter, err := uniprocChaosRun(h, cfg, core.NewRAS(), 200, plan,
				chaos.Watchdog{Policy: chaos.WatchdogExtend})
			if err != nil {
				return nil, fmt.Errorf("uniproc/ras: %v (repro: %s)", err, plan.Repro())
			}
			if counter != core.Word(cfg.Workers*cfg.Iters) {
				return nil, fmt.Errorf("uniproc/ras: counter %d, want %d — mutual exclusion violated (repro: %s)",
					counter, cfg.Workers*cfg.Iters, plan.Repro())
			}
			rows = append(rows, ChaosRow{
				Scenario: "uniproc/ras", Seed: seed, Level: plan.Level,
				Injected: proc.Stats.Injected, Restarts: proc.Stats.Restarts,
				Extends: proc.Stats.WatchdogExtends, Outcome: "exact",
			})
		}
	}

	// uniproc degradation: a 2-cycle quantum livelocks the 4-cycle RAS
	// test-and-set; core.Degrading must demote to emulation and finish.
	{
		d := core.NewDegrading(core.NewRAS(), core.NewKernelEmul(arch.R3000()))
		d.OpRestartLimit = 8
		proc, counter, err := uniprocChaosRun(h, cfg, d, 2, nil, chaos.Watchdog{})
		if err != nil {
			return nil, fmt.Errorf("uniproc/degrading: %v (repro: %s)", err, tableRepro("chaos", cfg.Seed))
		}
		if counter != core.Word(cfg.Workers*cfg.Iters) {
			return nil, fmt.Errorf("uniproc/degrading: counter %d, want %d (repro: %s)", counter, cfg.Workers*cfg.Iters, tableRepro("chaos", cfg.Seed))
		}
		if !d.Demoted() {
			return nil, fmt.Errorf("uniproc/degrading: pathological sequence was not demoted (repro: %s)", tableRepro("chaos", cfg.Seed))
		}
		rows = append(rows, ChaosRow{
			Scenario: "uniproc/degrading", Restarts: proc.Stats.Restarts,
			Aborts: proc.Stats.Demotions, Outcome: "demoted, exact",
		})
	}

	// Recognizer mutants: the two-stage check against corrupted sequences.
	{
		n, err := chaosMutantSweep(cfg.Seed, 200)
		if err != nil {
			return nil, fmt.Errorf("%v (repro: %s)", err, tableRepro("chaos", cfg.Seed))
		}
		rows = append(rows, ChaosRow{
			Scenario: "recognizer/mutants", Seed: cfg.Seed,
			Injected: uint64(n), Outcome: "no unsafe rollback",
		})
	}
	return rows, nil
}

func vmachChaosRun(h *Harness, strat kernel.Strategy, at kernel.CheckTime, mech guest.Mechanism,
	quantum uint64, cfg ChaosConfig, faults chaos.Injector, wd chaos.Watchdog) (*kernel.Kernel, uint32, uint32, error) {
	prog := guest.Assemble(guest.MutexCounterProgram(mech, cfg.Workers, cfg.Iters))
	k := kernel.Boot(kernel.Config{
		Strategy: strat, CheckAt: at, Quantum: quantum,
		MaxCycles: cfg.MaxCycles, Faults: faults, Watchdog: wd,
	}, prog, guest.StackTop(0))
	err := h.Run(k)
	return k, prog.MustSymbol("counter"), uint32(cfg.Workers * cfg.Iters), err
}

func uniprocChaosRun(h *Harness, cfg ChaosConfig, m core.Mechanism, quantum uint64,
	faults chaos.Injector, wd chaos.Watchdog) (*uniproc.Processor, core.Word, error) {
	proc := uniproc.New(uniproc.Config{
		Quantum: quantum, MaxCycles: cfg.MaxCycles, Faults: faults, Watchdog: wd,
	})
	lock := core.NewTASLock(m)
	var counter core.Word
	for i := 0; i < cfg.Workers; i++ {
		proc.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < cfg.Iters; it++ {
				lock.Acquire(e)
				v := e.Load(&counter)
				e.ChargeALU(1)
				e.Store(&counter, v+1)
				lock.Release(e)
			}
		})
	}
	err := h.Run(proc)
	return proc, counter, err
}

// chaosMutantSweep feeds n deterministically corrupted designated sequences
// to the recognizer and verifies the §3.2 safety contract with the exported
// API alone: a restart is only legal if the claimed sequence start is
// certified by a landmark at start+12 and the rollback distance is within
// the canonical window. Returns the number of mutants checked.
func chaosMutantSweep(seed uint64, n int) (int, error) {
	canon := []uint32{
		uint32(isa.Encode(isa.Lw(isa.RegV0, isa.RegS1, 0))),
		uint32(isa.Encode(isa.Ori(isa.RegT0, isa.RegZero, 1))),
		uint32(isa.Encode(isa.Bne(isa.RegV0, isa.RegZero, 3))),
		uint32(isa.Encode(isa.Landmark())),
		uint32(isa.Encode(isa.Sw(isa.RegT0, isa.RegS1, 0))),
	}
	const base = uint32(0x4000)
	for i := 0; i < n; i++ {
		mut, idx, kind := chaos.MutateWords(seed, uint64(i), canon)
		k := kernel.New(kernel.Config{Strategy: &kernel.Designated{}})
		for j, w := range mut {
			k.M.Mem.Poke(base+uint32(j*4), w)
		}
		for off := 0; off < len(mut); off++ {
			pc := base + uint32(off*4)
			th := &kernel.Thread{}
			th.Ctx.PC = pc
			res := k.Strategy.Check(k, th)
			if !res.Restarted {
				if th.Ctx.PC != pc {
					return i, fmt.Errorf("recognizer/mutants: mutant %d (%s word %d): reject moved pc %#x -> %#x",
						i, kind, idx, pc, th.Ctx.PC)
				}
				continue
			}
			start := th.Ctx.PC
			back := pc - start
			lm := k.M.Mem.Peek(start + 12)
			if back == 0 || back > 16 || back%4 != 0 || !isa.Decode(isa.Word(lm)).IsLandmark() {
				return i, fmt.Errorf("recognizer/mutants: mutant %d (%s word %d): unsafe rollback pc %#x -> %#x",
					i, kind, idx, pc, start)
			}
		}
	}
	return n, nil
}

// FormatChaos renders the chaos table.
func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-18s %6s %9s %9s %8s %7s  %s\n",
		"Scenario", "Seed", "Level", "Injected", "Restarts", "Extends", "Aborts", "Outcome")
	for _, r := range rows {
		seed := "-"
		if r.Seed != 0 {
			seed = fmt.Sprintf("%#x", r.Seed)
		}
		fmt.Fprintf(&b, "%-22s %-18s %6.2f %9d %9d %8d %7d  %s\n",
			r.Scenario, seed, r.Level, r.Injected, r.Restarts, r.Extends, r.Aborts, r.Outcome)
	}
	return b.String()
}

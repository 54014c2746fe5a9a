package bench

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mcheck"
	"repro/internal/uniproc"
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

// persistProc is a uniprocessor with the two-tier persistence model on
// and the crash sweeps' 2000-cycle quantum.
func persistProc(maxCycles uint64, faults chaos.Injector) *uniproc.Processor {
	p := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: maxCycles, Faults: faults})
	p.EnablePersistence()
	return p
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
	cal := persistProc(cfg.MaxCycles, nil)
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
		at := chaos.DeriveOrdinal(span, cfg.Seed, 0x5A, uint64(c))
		mu := core.NewPersistentMutex()
		var counter core.Word
		committed := 0
		p1 := persistProc(cfg.MaxCycles, chaos.OneShot{Point: chaos.PointMemOp, N: at,
			Action: chaos.Action{Crash: chaos.CrashVolatile}})
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
		p2 := persistProc(cfg.MaxCycles, nil)
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
//   - vmach crash sweep: the persist model's guest crashed (volatile
//     tier discarded) at seeded persist-op ordinals, rebooted over the
//     surviving NVM, its bounded-loss and exact-recovery audits run at
//     every crash;
//   - vmach under-flush control: the same sweep over the deliberately
//     under-flushed variant must report persist-loss, a loss greater
//     than one;
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

	// The vmach sweeps: the persist model's instances, each crashed
	// once at a seeded persist-op ordinal. The control is the planted
	// under-flushed variant, which must lose more than one increment.
	for _, leg := range []struct {
		scenario, variant, expect, outcome string
		salt                               uint64
	}{
		{"vmach/crash-sweep", "flushed", "", "loss <= 1, exact recovery", 0x58},
		{"vmach/underflush-control", "underflush", "persist-loss", "loss detected (control)", 0x59},
	} {
		out, err := h.sweep(leg.scenario, "persist",
			map[string]string{"workers": strconv.Itoa(cfg.Workers), "iters": strconv.Itoa(cfg.Iters), "variant": leg.variant},
			cfg.Crashes, leg.expect, crashPlan(cfg.Seed, leg.salt, mcheck.ActCrashVolatile))
		if err != nil {
			return nil, err
		}
		rows = append(rows, PersistRow{Scenario: leg.scenario, Seed: cfg.Seed, Crashes: cfg.Crashes,
			Repairs: out.Repairs, MaxLoss: out.MaxLoss, Outcome: leg.outcome})
	}

	row, err := uniprocPersistSweep(h, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Exhaustive flush-boundary walk via the model checker.
	schedules, err := exhaustiveK1("mcheck/flush-boundaries", "persist", map[string]string{"workers": "1", "iters": "2"})
	if err != nil {
		return nil, err
	}
	rows = append(rows, PersistRow{Scenario: "mcheck/flush-boundaries",
		Crashes: schedules - 1, MaxLoss: 0,
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

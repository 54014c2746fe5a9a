package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/vmach/kernel"
)

// RecoveryConfig parametrizes the recovery table: the thread-kill sweeps,
// the checkpoint replay, and the crash-restore scenarios.
type RecoveryConfig struct {
	Seed uint64
	// Schedules is the per-leg sweep size. The uniproc sweep runs
	// 2*Schedules and each vmach strategy runs Schedules, so the default
	// of 256 gives 1024 kill schedules in all.
	Schedules int
	Workers   int
	Iters     int
	// Crashes is how many independent crash-restore scenarios run.
	Crashes   int
	MaxCycles uint64
}

// DefaultRecoveryConfig returns the configuration `rasbench -table
// recovery` and `make recovery` run.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{Seed: 1, Schedules: 256, Workers: 3, Iters: 30, Crashes: 8}
}

// RecoveryRow is one scenario outcome of the recovery table.
type RecoveryRow struct {
	Scenario  string `json:"scenario"`
	Seed      uint64 `json:"seed"`
	Schedules int    `json:"schedules"`
	Kills     uint64 `json:"kills"`
	Repairs   uint64 `json:"repairs"`
	Outcome   string `json:"outcome"`
}

// rmeRun is one run of the recoverable-counter guest program under
// guest.WatchRME — the vmach analogue of core.RMEChecker: watchpoints see
// every committed store to the lock and counter words and judge it by
// the RME rules the guest package owns.
type rmeRun struct {
	k    *kernel.Kernel
	prog *asm.Program
	rme  *guest.RMECounts
	err  error // the first broken rule
}

func newRMERun(cfg kernel.Config, workers, iters int) *rmeRun {
	prog := guest.Assemble(guest.RecoverableCounterProgram(workers, iters))
	r := &rmeRun{k: kernel.Boot(cfg, prog, guest.StackTop(0)), prog: prog}
	r.rme = guest.WatchRME(r.k.M.Mem, prog, r.k, false, func(b guest.RMEBreach) {
		if r.err == nil {
			r.err = errors.New(b.Msg)
		}
	})
	return r
}

// verify reports the first problem with a finished run, or nil.
func (r *rmeRun) verify(runErr error) error {
	if runErr != nil {
		return runErr
	}
	if r.err != nil {
		return r.err
	}
	for _, th := range r.k.Threads() {
		switch th.State {
		case kernel.StateDone, kernel.StateKilled:
		default:
			return fmt.Errorf("thread %d stuck in state %v", th.ID, th.State)
		}
	}
	if got := uint64(r.k.M.Mem.Peek(r.prog.MustSymbol("counter"))); got != r.rme.Increments {
		return fmt.Errorf("counter %d but %d watched increments", got, r.rme.Increments)
	}
	return nil
}

// TableRecovery runs the recoverable-mutual-exclusion validation:
//
//   - uniproc kill sweep: the uni-rme model (core.RecoverableMutex)
//     under seeded thread-kill schedules — the RMEChecker must record
//     zero violations, the counter must equal its Go-side shadow exactly,
//     and every surviving thread must finish;
//   - vmach kill sweeps: the guest owner+epoch lock on the ISA-level
//     kernel, one sweep per recovery strategy, with watchpoint-validated
//     lock-word transitions;
//   - checkpoint replay: a run cut at deterministic points, carried
//     through the binary wire format, and replayed to bit-identical final
//     state;
//   - crash restore: injected whole-machine crashes checkpointed where
//     they struck and replayed to the uncrashed run's exact final state.
//
// Any failure is returned as an error naming the seed that reproduces it;
// the kill sweep's is the failing schedule as a .sched file.
func TableRecovery(h *Harness, cfg RecoveryConfig) ([]RecoveryRow, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 1
	}
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	var rows []RecoveryRow

	// Uniproc kill sweep: the uni-rme model's instances.
	out, err := h.sweep("uniproc/kill-sweep", "uni-rme",
		map[string]string{"workers": strconv.Itoa(cfg.Workers), "iters": strconv.Itoa(cfg.Iters)},
		2*cfg.Schedules, killPlan(cfg.Seed, 0x55))
	if err != nil {
		return nil, err
	}
	rows = append(rows, RecoveryRow{
		Scenario: "uniproc/kill-sweep", Seed: cfg.Seed, Schedules: 2 * cfg.Schedules,
		Kills: out.Kills, Repairs: out.Repairs, Outcome: "ME held, exact shadow",
	})

	// vmCfg is the kernel every vmach leg boots: a 250-cycle quantum.
	vmCfg := func(strat kernel.Strategy, faults chaos.Injector) kernel.Config {
		return kernel.Config{Strategy: strat, Quantum: 250, MaxCycles: cfg.MaxCycles, Faults: faults}
	}

	// Vmach kill sweeps, one per strategy.
	for _, strat := range []func() kernel.Strategy{
		func() kernel.Strategy { return &kernel.Registration{} },
		func() kernel.Strategy { return &kernel.Designated{} },
	} {
		name := "vmach/kill-sweep/" + strat().Name()
		mk := func(faults chaos.Injector) *rmeRun {
			return newRMERun(vmCfg(strat(), faults), cfg.Workers, cfg.Iters)
		}
		ref := mk(nil)
		if err := ref.verify(h.Run(ref.k)); err != nil {
			return nil, fmt.Errorf("%s: reference: %v (repro: %s)", name, err, tableRepro("recovery", cfg.Seed))
		}
		span := ref.k.Steps()
		var kills, repairs uint64
		for s := 0; s < cfg.Schedules; s++ {
			n := 1 + int(chaos.Derive(cfg.Seed, 0x56, uint64(s))%3)
			shots := make([]chaos.Injector, 0, n)
			for i := 0; i < n; i++ {
				at := chaos.DeriveOrdinal(span, cfg.Seed, 0x56, uint64(s), uint64(i))
				shots = append(shots, chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Kill: true}})
			}
			w := mk(chaos.Compose(shots...))
			if err := w.verify(h.Run(w.k)); err != nil {
				return nil, fmt.Errorf("%s: schedule %d (seed %#x): %v (repro: %s)", name, s, cfg.Seed, err, tableRepro("recovery", cfg.Seed))
			}
			kills += w.k.Stats.Kills
			repairs += w.rme.Steals
		}
		rows = append(rows, RecoveryRow{
			Scenario: name, Seed: cfg.Seed, Schedules: cfg.Schedules,
			Kills: kills, Repairs: repairs, Outcome: "ME held, watchpoints clean",
		})
	}

	// Checkpoint replay at deterministic cuts.
	{
		ref := newRMERun(vmCfg(&kernel.Registration{}, nil), cfg.Workers, cfg.Iters)
		if err := ref.verify(h.Run(ref.k)); err != nil {
			return nil, fmt.Errorf("vmach/checkpoint-replay: reference: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
		}
		total := ref.k.M.Stats.Instructions
		cuts := 0
		for _, frac := range []uint64{1, 2, 3} {
			cut := total * frac / 4
			w := newRMERun(vmCfg(&kernel.Registration{}, nil), cfg.Workers, cfg.Iters)
			if fin, err := w.k.RunSteps(cut); fin {
				return nil, fmt.Errorf("vmach/checkpoint-replay: cut %d finished early (%v) (repro: %s)", cut, err, tableRepro("recovery", cfg.Seed))
			}
			enc := w.k.Capture().Encode()
			snap, err := kernel.DecodeSnapshot(enc)
			if err != nil {
				return nil, fmt.Errorf("vmach/checkpoint-replay: decode: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			if !bytes.Equal(enc, snap.Encode()) {
				return nil, fmt.Errorf("vmach/checkpoint-replay: re-encoding not bit-identical (repro: %s)", tableRepro("recovery", cfg.Seed))
			}
			k2, err := kernel.Restore(vmCfg(&kernel.Registration{}, nil), snap)
			if err != nil {
				return nil, fmt.Errorf("vmach/checkpoint-replay: restore: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			if err := h.Run(k2); err != nil {
				return nil, fmt.Errorf("vmach/checkpoint-replay: replay: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			if k2.Stats != ref.k.Stats || k2.M.Stats != ref.k.M.Stats {
				return nil, fmt.Errorf("vmach/checkpoint-replay: cut %d diverged from the straight run (repro: %s)", cut, tableRepro("recovery", cfg.Seed))
			}
			cuts++
		}
		rows = append(rows, RecoveryRow{
			Scenario: "vmach/checkpoint-replay", Schedules: cuts, Outcome: "bit-identical replay",
		})
	}

	// Crash restore: checkpoint where the crash struck, replay the rest.
	{
		ref := newRMERun(vmCfg(&kernel.Registration{}, nil), cfg.Workers, cfg.Iters)
		if err := ref.verify(h.Run(ref.k)); err != nil {
			return nil, fmt.Errorf("vmach/crash-restore: reference: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
		}
		span := ref.k.Steps()
		for c := 0; c < cfg.Crashes; c++ {
			at := chaos.DeriveOrdinal(span, cfg.Seed, 0x57, uint64(c))
			w := newRMERun(vmCfg(&kernel.Registration{}, chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Crash: chaos.CrashClean}}),
				cfg.Workers, cfg.Iters)
			if err := h.Run(w.k); !errors.Is(err, kernel.ErrMachineCrash) {
				return nil, fmt.Errorf("vmach/crash-restore: crash %d at step %d: run = %v (repro: %s)", c, at, err, tableRepro("recovery", cfg.Seed))
			}
			snap, err := kernel.DecodeSnapshot(w.k.Capture().Encode())
			if err != nil {
				return nil, fmt.Errorf("vmach/crash-restore: decode: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			k2, err := kernel.Restore(vmCfg(&kernel.Registration{}, nil), snap)
			if err != nil {
				return nil, fmt.Errorf("vmach/crash-restore: restore: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			if err := h.Run(k2); err != nil {
				return nil, fmt.Errorf("vmach/crash-restore: replay: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			// The crash injection itself is the only accounting difference
			// from the uncrashed reference.
			s2, sr := k2.Stats, ref.k.Stats
			s2.Injected, sr.Injected = 0, 0
			if s2 != sr || k2.M.Stats != ref.k.M.Stats {
				return nil, fmt.Errorf("vmach/crash-restore: crash %d at step %d: replay diverged (repro: %s)", c, at, tableRepro("recovery", cfg.Seed))
			}
		}
		rows = append(rows, RecoveryRow{
			Scenario: "vmach/crash-restore", Seed: cfg.Seed, Schedules: cfg.Crashes,
			Outcome: "replayed to uncrashed state",
		})
	}
	return rows, nil
}

// FormatRecovery renders the recovery table.
func FormatRecovery(rows []RecoveryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-10s %9s %7s %8s  %s\n",
		"Scenario", "Seed", "Schedules", "Kills", "Repairs", "Outcome")
	for _, r := range rows {
		seed := "-"
		if r.Seed != 0 {
			seed = fmt.Sprintf("%#x", r.Seed)
		}
		fmt.Fprintf(&b, "%-28s %-10s %9d %7d %8d  %s\n",
			r.Scenario, seed, r.Schedules, r.Kills, r.Repairs, r.Outcome)
	}
	return b.String()
}

package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/uniproc"
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

// rmeWatch validates the recoverable-counter guest program's lock
// discipline through memory watchpoints — the vmach analogue of
// core.RMEChecker. It sees every committed store to the lock and counter
// words and checks the RME invariants: increments happen only under the
// lock, a held lock changes hands only when the previous owner is dead,
// and every steal bumps the epoch by exactly one.
type rmeWatch struct {
	k          *kernel.Kernel
	lockAddr   uint32
	violations []string
	increments uint64
	steals     uint64
}

func (w *rmeWatch) violate(format string, args ...any) {
	if len(w.violations) < 8 {
		w.violations = append(w.violations, fmt.Sprintf(format, args...))
	}
}

func newRMEWatch(cfg kernel.Config, workers, iters int) *rmeWatch {
	prog := guest.Assemble(guest.RecoverableCounterProgram(workers, iters))
	k := kernel.Boot(cfg, prog, "main", guest.StackTop(0), true)

	w := &rmeWatch{k: k, lockAddr: prog.MustSymbol("lock")}
	storer := func() int {
		if cur := k.Current(); cur != nil {
			return cur.ID
		}
		return -1
	}
	dead := func(tid int) bool {
		if tid < 0 || tid >= len(k.Threads()) {
			return true
		}
		switch k.Threads()[tid].State {
		case kernel.StateDone, kernel.StateFaulted, kernel.StateKilled:
			return true
		}
		return false
	}
	k.M.Mem.Watch(w.lockAddr, func(old, new isa.Word) {
		me := storer()
		oldOwner, newOwner := int(old&0xFFFF), int(new&0xFFFF)
		oldEpoch, newEpoch := old>>16, new>>16
		switch {
		case oldOwner == 0 && newOwner != 0:
			if newOwner != me+1 || newEpoch != oldEpoch {
				w.violate("bad acquire %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner == 0:
			if oldOwner != me+1 || newEpoch != oldEpoch {
				w.violate("bad release %#x->%#x by t%d", old, new, me)
			}
		case oldOwner != 0 && newOwner != 0:
			w.steals++
			if newOwner != me+1 || newEpoch != oldEpoch+1 {
				w.violate("bad steal %#x->%#x by t%d", old, new, me)
			}
			if !dead(oldOwner - 1) {
				w.violate("t%d stole from live t%d — ME breach", me, oldOwner-1)
			}
		}
	})
	k.M.Mem.Watch(prog.MustSymbol("counter"), func(old, new isa.Word) {
		w.increments++
		lock := k.M.Mem.Peek(w.lockAddr)
		if me := storer(); int(lock&0xFFFF) != me+1 || new != old+1 {
			w.violate("t%d incremented %d->%d with lock %#x", me, old, new, lock)
		}
	})
	return w
}

// verify reports the first problem with a finished run, or nil.
func (w *rmeWatch) verify(runErr error) error {
	if runErr != nil {
		return runErr
	}
	if len(w.violations) > 0 {
		return errors.New(w.violations[0])
	}
	for _, th := range w.k.Threads() {
		switch th.State {
		case kernel.StateDone, kernel.StateKilled:
		default:
			return fmt.Errorf("thread %d stuck in state %v", th.ID, th.State)
		}
	}
	if got := uint64(w.k.M.Mem.Peek(w.lockAddr + 4)); got != w.increments {
		return fmt.Errorf("counter %d but %d watched increments", got, w.increments)
	}
	return nil
}

// TableRecovery runs the recoverable-mutual-exclusion validation:
//
//   - uniproc kill sweep: core.RecoverableMutex under seeded thread-kill
//     schedules — the RMEChecker must record zero violations, the counter
//     must equal its Go-side shadow exactly, and every surviving thread
//     must finish;
//   - vmach kill sweeps: the guest owner+epoch lock on the ISA-level
//     kernel, one sweep per recovery strategy, with watchpoint-validated
//     lock-word transitions;
//   - checkpoint replay: a run cut at deterministic points, carried
//     through the binary wire format, and replayed to bit-identical final
//     state;
//   - crash restore: injected whole-machine crashes checkpointed where
//     they struck and replayed to the uncrashed run's exact final state.
//
// Any failure is returned as an error naming the seed that reproduces it.
func TableRecovery(h *Harness, cfg RecoveryConfig) ([]RecoveryRow, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 1
	}
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	var rows []RecoveryRow

	// Uniproc kill sweep.
	{
		run := func(faults chaos.Injector) (*uniproc.Processor, *core.RecoverableMutex, core.Word, uint64, error) {
			p := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles, Faults: faults})
			m := core.NewRecoverableMutex()
			m.Checker = core.NewRMEChecker()
			var counter core.Word
			var gocount uint64
			for i := 0; i < cfg.Workers; i++ {
				p.Go("worker", func(e *uniproc.Env) {
					for it := 0; it < cfg.Iters; it++ {
						m.Acquire(e)
						v := e.Load(&counter)
						e.ChargeALU(1)
						gocount++
						e.Store(&counter, v+1)
						m.Release(e)
					}
				})
			}
			err := h.Run(p)
			return p, m, counter, gocount, err
		}
		ref, _, _, _, err := run(nil)
		if err != nil {
			return nil, fmt.Errorf("uniproc/kill-sweep: reference: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
		}
		span := ref.MemOps()
		schedules := 2 * cfg.Schedules
		var kills, repairs uint64
		for s := 0; s < schedules; s++ {
			n := 1 + int(chaos.Derive(cfg.Seed, 0x55, uint64(s))%3)
			shots := make([]chaos.Injector, 0, n)
			for i := 0; i < n; i++ {
				at := chaos.Derive(cfg.Seed, 0x55, uint64(s), uint64(i))%span + 1
				shots = append(shots, chaos.OneShot{Point: chaos.PointMemOp, N: at, Action: chaos.Action{Kill: true}})
			}
			p, m, counter, gocount, err := run(chaos.Compose(shots...))
			if err != nil {
				return nil, fmt.Errorf("uniproc/kill-sweep: schedule %d (seed %#x): %v (repro: %s)", s, cfg.Seed, err, tableRepro("recovery", cfg.Seed))
			}
			if v := m.Checker.Violations(); len(v) != 0 {
				return nil, fmt.Errorf("uniproc/kill-sweep: schedule %d (seed %#x): %s (repro: %s)", s, cfg.Seed, v[0], tableRepro("recovery", cfg.Seed))
			}
			if uint64(counter) != gocount {
				return nil, fmt.Errorf("uniproc/kill-sweep: schedule %d (seed %#x): counter=%d shadow=%d (repro: %s)",
					s, cfg.Seed, counter, gocount, tableRepro("recovery", cfg.Seed))
			}
			for _, th := range p.Threads() {
				if !th.Done() {
					return nil, fmt.Errorf("uniproc/kill-sweep: schedule %d (seed %#x): stuck acquirer %v (repro: %s)", s, cfg.Seed, th, tableRepro("recovery", cfg.Seed))
				}
			}
			kills += p.Stats.Kills
			repairs += m.Checker.Steals()
		}
		rows = append(rows, RecoveryRow{
			Scenario: "uniproc/kill-sweep", Seed: cfg.Seed, Schedules: schedules,
			Kills: kills, Repairs: repairs, Outcome: "ME held, exact shadow",
		})
	}

	// Vmach kill sweeps, one per strategy.
	for _, strat := range []func() kernel.Strategy{
		func() kernel.Strategy { return &kernel.Registration{} },
		func() kernel.Strategy { return &kernel.Designated{} },
	} {
		name := "vmach/kill-sweep/" + strat().Name()
		mk := func(faults chaos.Injector) *rmeWatch {
			return newRMEWatch(kernel.Config{
				Strategy: strat(), Quantum: 250, MaxCycles: cfg.MaxCycles, Faults: faults,
			}, cfg.Workers, cfg.Iters)
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
				at := chaos.Derive(cfg.Seed, 0x56, uint64(s), uint64(i))%span + 1
				shots = append(shots, chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Kill: true}})
			}
			w := mk(chaos.Compose(shots...))
			if err := w.verify(h.Run(w.k)); err != nil {
				return nil, fmt.Errorf("%s: schedule %d (seed %#x): %v (repro: %s)", name, s, cfg.Seed, err, tableRepro("recovery", cfg.Seed))
			}
			kills += w.k.Stats.Kills
			repairs += w.steals
		}
		rows = append(rows, RecoveryRow{
			Scenario: name, Seed: cfg.Seed, Schedules: cfg.Schedules,
			Kills: kills, Repairs: repairs, Outcome: "ME held, watchpoints clean",
		})
	}

	// Checkpoint replay at deterministic cuts.
	{
		ref := newRMEWatch(kernel.Config{Strategy: &kernel.Registration{}, Quantum: 250, MaxCycles: cfg.MaxCycles},
			cfg.Workers, cfg.Iters)
		if err := ref.verify(h.Run(ref.k)); err != nil {
			return nil, fmt.Errorf("vmach/checkpoint-replay: reference: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
		}
		total := ref.k.M.Stats.Instructions
		cuts := 0
		for _, frac := range []uint64{1, 2, 3} {
			cut := total * frac / 4
			w := newRMEWatch(kernel.Config{Strategy: &kernel.Registration{}, Quantum: 250, MaxCycles: cfg.MaxCycles},
				cfg.Workers, cfg.Iters)
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
			k2, err := kernel.Restore(kernel.Config{Strategy: &kernel.Registration{}, Quantum: 250, MaxCycles: cfg.MaxCycles}, snap)
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
		mkCfg := func(faults chaos.Injector) kernel.Config {
			return kernel.Config{Strategy: &kernel.Registration{}, Quantum: 250, MaxCycles: cfg.MaxCycles, Faults: faults}
		}
		ref := newRMEWatch(mkCfg(nil), cfg.Workers, cfg.Iters)
		if err := ref.verify(h.Run(ref.k)); err != nil {
			return nil, fmt.Errorf("vmach/crash-restore: reference: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
		}
		span := ref.k.Steps()
		for c := 0; c < cfg.Crashes; c++ {
			at := chaos.Derive(cfg.Seed, 0x57, uint64(c))%span + 1
			w := newRMEWatch(mkCfg(chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Crash: true}}),
				cfg.Workers, cfg.Iters)
			if err := h.Run(w.k); !errors.Is(err, kernel.ErrMachineCrash) {
				return nil, fmt.Errorf("vmach/crash-restore: crash %d at step %d: run = %v (repro: %s)", c, at, err, tableRepro("recovery", cfg.Seed))
			}
			snap, err := kernel.DecodeSnapshot(w.k.Capture().Encode())
			if err != nil {
				return nil, fmt.Errorf("vmach/crash-restore: decode: %v (repro: %s)", err, tableRepro("recovery", cfg.Seed))
			}
			k2, err := kernel.Restore(mkCfg(nil), snap)
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

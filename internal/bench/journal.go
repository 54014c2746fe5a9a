package bench

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mcheck"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
)

// JournalConfig parametrizes the journaling table (experiment E24): the
// undo-vs-redo passage-cost comparison on both substrates, the torn-crash
// sweeps, the memfs journal replay, and the exhaustive boundary walk.
type JournalConfig struct {
	Seed uint64
	// Crashes is the number of seeded torn-crash points per sweep.
	Crashes int
	// Target is the guest journal's transaction count.
	Target int
	// Ops is the persistent-structure operation count per flavor.
	Ops       int
	MaxCycles uint64
}

// DefaultJournalConfig returns the configuration `rasbench -table journal`
// and `make journal` run.
func DefaultJournalConfig() JournalConfig {
	return JournalConfig{Seed: 1, Crashes: 24, Target: 8, Ops: 12}
}

// JournalRow is one scenario outcome of the journaling table. For the
// fault-free passage rows Cycles and PersistOps are totals over Ops
// operations — the undo-vs-redo cost comparison is their ratio. For the
// sweep rows Repairs counts the crashes whose recovery had a committed
// in-flight record to roll.
type JournalRow struct {
	Scenario   string `json:"scenario"`
	Mode       string `json:"mode"`
	Seed       uint64 `json:"seed"`
	Crashes    int    `json:"crashes"`
	Ops        int    `json:"ops"`
	Cycles     uint64 `json:"cycles"`
	PersistOps uint64 `json:"persist_ops"`
	Repairs    uint64 `json:"repairs"`
	Outcome    string `json:"outcome"`
}

// vmachJournalPassage runs the guest journal fault-free and reports the
// passage cost: cycles and persist operations for Target transactions.
func vmachJournalPassage(h *Harness, cfg JournalConfig, mode string) (JournalRow, error) {
	l := h.lives(guest.Assemble(guest.JournalProgram(mode, cfg.Target)), cfg.MaxCycles)
	k := l.Boot(nil)
	if err := l.Run(k); err != nil {
		return JournalRow{}, fmt.Errorf("vmach/%s passage: %v (repro: %s)", mode, err, tableRepro("journal", cfg.Seed))
	}
	mem := l.Memory()
	a, b := mem.Peek(l.Prog.MustSymbol("va")), mem.Peek(l.Prog.MustSymbol("vb"))
	if int(a) != cfg.Target || int(b) != cfg.Target {
		return JournalRow{}, fmt.Errorf("vmach/%s passage: va=%d vb=%d, want %d (repro: %s)",
			mode, a, b, cfg.Target, tableRepro("journal", cfg.Seed))
	}
	return JournalRow{
		Scenario: "vmach/passage", Mode: mode, Ops: cfg.Target,
		Cycles:     k.M.Stats.Cycles,
		PersistOps: k.M.Stats.Flushes + k.M.Stats.Fences,
		Outcome:    "target reached",
	}, nil
}

// vmachJournalTornSweep crashes the guest journal at seeded step ordinals
// with torn write-backs, warm-reboots the same machine over the surviving
// NVM, and requires exact recovery every time. Repairs counts the crashes
// that left a committed in-flight record (host-checked with the guest's
// own recovery rule, guest.JournalRecord.Commits).
func vmachJournalTornSweep(h *Harness, cfg JournalConfig, mode string) (JournalRow, error) {
	fail := func(format string, args ...any) (JournalRow, error) {
		return JournalRow{}, fmt.Errorf("vmach/"+mode+"-torn: "+format+" (repro: %s)",
			append(args, tableRepro("journal", cfg.Seed))...)
	}
	prog := guest.Assemble(guest.JournalProgram(mode, cfg.Target))
	machine := h.lives(prog, cfg.MaxCycles)
	span, err := machine.Calibrate()
	if err != nil {
		return fail("calibration: %v", err)
	}

	va, vb := prog.MustSymbol("va"), prog.MustSymbol("vb")
	var repairs uint64
	salt := uint64(0x6A)
	if mode == "undo" {
		salt = 0x6B
	}
	for c := 0; c < cfg.Crashes; c++ {
		at := chaos.DeriveOrdinal(span, cfg.Seed, salt, uint64(c))
		l := machine
		k := l.Boot(chaos.OneShot{Point: chaos.PointStep, N: at,
			Action: chaos.Action{Crash: chaos.CrashTorn}})
		if err := l.Run(k); !errors.Is(err, kernel.ErrMachineCrash) {
			return fail("crash %d at step %d: run = %v", c, at, err)
		}
		// The crash already tore the volatile tier down; audit the NVM
		// image with the guest's own recovery rule before rebooting.
		mem := l.Memory()
		if guest.ReadJournal(mem.NVPeek, prog).Commits() {
			repairs++
		}
		if err := l.Run(l.Boot(nil)); err != nil {
			return fail("crash %d at step %d: reboot run: %v", c, at, err)
		}
		a, b := mem.Peek(va), mem.Peek(vb)
		if int(a) != cfg.Target || int(b) != cfg.Target {
			return fail("crash %d at step %d: va=%d vb=%d after reboot, want %d", c, at, a, b, cfg.Target)
		}
	}
	return JournalRow{
		Scenario: "vmach/torn-sweep", Mode: mode, Seed: cfg.Seed,
		Crashes: cfg.Crashes, Ops: cfg.Target, Repairs: repairs,
		Outcome: "exact recovery",
	}, nil
}

// pstructPassage runs a persistent stack or queue fault-free and reports
// the passage cost of one logged transaction per operation: the pstruct
// model's workload, pushing or enqueueing 1..Ops.
func pstructPassage(h *Harness, cfg JournalConfig, kind string, mode core.LogMode) (JournalRow, error) {
	ops := make([]int, cfg.Ops)
	for i := range ops {
		ops[i] = i + 1
	}
	arena := mcheck.PStructArena(kind, cfg.Ops)
	p := persistProc(cfg.MaxCycles, nil)
	var opErr error
	p.Go("main", func(e *uniproc.Env) {
		_, opErr = mcheck.PStructOps(e, arena, kind, mode, ops, func() {})
	})
	if err := h.Run(p); err != nil {
		return JournalRow{}, fmt.Errorf("uniproc/%s-%s passage: %v (repro: %s)", kind, mode, err, tableRepro("journal", cfg.Seed))
	}
	if opErr != nil {
		return JournalRow{}, fmt.Errorf("uniproc/%s-%s passage: %v (repro: %s)", kind, mode, opErr, tableRepro("journal", cfg.Seed))
	}
	return JournalRow{
		Scenario: "uniproc/" + kind + "-passage", Mode: mode.String(), Ops: cfg.Ops,
		Cycles: p.Clock(), PersistOps: p.PersistOps(),
		Outcome: "all ops committed",
	}, nil
}

// pstructTornSweep crashes the pstruct model's stack, pushing 1..Ops, at
// seeded persist-operation ordinals with torn write-backs; the model
// recovers it on a fresh processor and requires exactly the state after
// the operations that returned, or after the one in flight.
func pstructTornSweep(h *Harness, cfg JournalConfig, mode core.LogMode) (JournalRow, error) {
	script := make([]string, cfg.Ops)
	for i := range script {
		script[i] = strconv.Itoa(i + 1)
	}
	out, err := h.sweep("uniproc/stack-torn-sweep/"+mode.String(), "pstruct",
		map[string]string{"struct": "stack", "mode": mode.String(), "torn": "1", "script": strings.Join(script, " ")},
		cfg.Crashes, crashPlan(cfg.Seed, 0x7A+uint64(mode), mcheck.ActCrashTorn))
	if err != nil {
		return JournalRow{}, err
	}
	return JournalRow{
		Scenario: "uniproc/stack-torn-sweep", Mode: mode.String(), Seed: cfg.Seed,
		Crashes: cfg.Crashes, Ops: cfg.Ops, Repairs: out.Repairs,
		Outcome: "all-or-nothing recovery",
	}, nil
}

// memfsJournalReplay crashes the memfs-journal model's E24 workload
// (create /log, then Ops one-byte appends) at seeded persist-operation
// ordinals with torn write-backs and remounts: the tree must be the
// state after every returned operation, or after the one in flight. The
// row sums the journal records written and replayed.
func memfsJournalReplay(h *Harness, cfg JournalConfig) (JournalRow, error) {
	out, err := h.sweep("memfs/journal-replay", "memfs-journal",
		map[string]string{"appends": strconv.Itoa(cfg.Ops), "torn": "1"},
		cfg.Crashes, crashPlan(cfg.Seed, 0x8A, mcheck.ActCrashTorn))
	if err != nil {
		return JournalRow{}, err
	}
	return JournalRow{
		Scenario: "memfs/journal-replay", Seed: cfg.Seed, Crashes: cfg.Crashes,
		Ops: cfg.Ops, PersistOps: out.Written, Repairs: out.Replayed,
		Outcome: "committed appends survive",
	}, nil
}

// TableJournal runs the crash-consistent journaling validation (E24):
//
//   - vmach passage: the guest WAL transaction loop fault-free in redo
//     and undo modes — the fence-count difference is the passage cost
//     the logging discipline buys;
//   - vmach torn sweeps: both modes crashed with torn write-backs at
//     seeded ordinals, rebooted, exact recovery required;
//   - uniproc passage: core.PersistentStack and core.PersistentQueue in
//     both logging modes, persist ops and cycles per transaction;
//   - uniproc torn sweep: the pstruct model's stack crashed at seeded
//     persist ordinals, recovered cold, all-or-nothing transactionality
//     required;
//   - memfs journal replay: the memfs-journal model's appends crashed
//     torn at seeded ordinals, committed appends never lost, the records
//     written and replayed summed;
//   - mcheck walk: the exhaustive K=1 torn-crash enumeration of the redo
//     journal at every persist boundary, zero violations.
func TableJournal(h *Harness, cfg JournalConfig) ([]JournalRow, error) {
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	var rows []JournalRow

	for _, mode := range []string{"redo", "undo"} {
		row, err := vmachJournalPassage(h, cfg, mode)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, mode := range []string{"redo", "undo"} {
		row, err := vmachJournalTornSweep(h, cfg, mode)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, kind := range []string{"stack", "queue"} {
		for _, mode := range []core.LogMode{core.Redo, core.Undo} {
			row, err := pstructPassage(h, cfg, kind, mode)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	for _, mode := range []core.LogMode{core.Redo, core.Undo} {
		row, err := pstructTornSweep(h, cfg, mode)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	row, err := memfsJournalReplay(h, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	schedules, err := exhaustiveK1("mcheck/journal-boundaries", "journal", map[string]string{"mode": "redo", "torn": "1"})
	if err != nil {
		return nil, err
	}
	rows = append(rows, JournalRow{Scenario: "mcheck/journal-boundaries", Mode: "redo",
		Crashes: schedules - 1, Outcome: "exhaustive K=1 torn, zero violations"})
	return rows, nil
}

// FormatJournal renders the journaling table with per-operation costs.
func FormatJournal(rows []JournalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-6s %-10s %8s %6s %10s %10s %8s  %s\n",
		"Scenario", "Mode", "Seed", "Crashes", "Ops", "Cyc/op", "Persist/op", "Repairs", "Outcome")
	for _, r := range rows {
		seed := "-"
		if r.Seed != 0 {
			seed = fmt.Sprintf("%#x", r.Seed)
		}
		perOp := func(total uint64) string {
			if r.Ops == 0 || total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(total)/float64(r.Ops))
		}
		fmt.Fprintf(&b, "%-26s %-6s %-10s %8d %6d %10s %10s %8d  %s\n",
			r.Scenario, r.Mode, seed, r.Crashes, r.Ops,
			perOp(r.Cycles), perOp(r.PersistOps), r.Repairs, r.Outcome)
	}
	return b.String()
}

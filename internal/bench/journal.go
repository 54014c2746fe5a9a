package bench

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/guest"
	"repro/internal/journal"
	"repro/internal/mcheck"
	"repro/internal/obs"
	"repro/internal/uniproc"
	"repro/internal/vmach"
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
	prog := guest.Assemble(guest.JournalProgram(mode, cfg.Target))
	mem := vmach.NewMemory()
	mem.EnablePersistence()
	k := kernel.Boot(persistKernelConfig(mem, nil, cfg.MaxCycles), prog, "main", guest.StackTop(0), true)
	if err := h.Run(k); err != nil {
		return JournalRow{}, fmt.Errorf("vmach/%s passage: %v (repro: %s)", mode, err, tableRepro("journal", cfg.Seed))
	}
	a, b := mem.Peek(prog.MustSymbol("va")), mem.Peek(prog.MustSymbol("vb"))
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
// with torn write-backs, reboots the same binary over the surviving NVM,
// and requires exact recovery every time. Repairs counts the crashes
// that left a committed in-flight record (host-checked with the same
// checksum rule the guest's recovery path applies).
func vmachJournalTornSweep(h *Harness, cfg JournalConfig, mode string) (JournalRow, error) {
	prog := guest.Assemble(guest.JournalProgram(mode, cfg.Target))
	fail := func(format string, args ...any) (JournalRow, error) {
		return JournalRow{}, fmt.Errorf("vmach/"+mode+"-torn: "+format+" (repro: %s)",
			append(args, tableRepro("journal", cfg.Seed))...)
	}
	boot := func(mem *vmach.Memory, faults chaos.Injector, cold bool) *kernel.Kernel {
		return kernel.Boot(persistKernelConfig(mem, faults, cfg.MaxCycles), prog, "main", guest.StackTop(0), cold)
	}

	calMem := vmach.NewMemory()
	calMem.EnablePersistence()
	cal := boot(calMem, nil, true)
	if err := h.Run(cal); err != nil {
		return fail("calibration: %v", err)
	}
	span := cal.Steps()

	jlog, applied := prog.MustSymbol("jlog"), prog.MustSymbol("applied")
	va, vb := prog.MustSymbol("va"), prog.MustSymbol("vb")
	var repairs uint64
	salt := uint64(0x6A)
	if mode == "undo" {
		salt = 0x6B
	}
	for c := 0; c < cfg.Crashes; c++ {
		at := chaos.Derive(cfg.Seed, salt, uint64(c))%span + 1
		mem := vmach.NewMemory()
		mem.EnablePersistence()
		k := boot(mem, chaos.OneShot{Point: chaos.PointStep, N: at,
			Action: chaos.Action{CrashVolatile: true, Torn: true}}, true)
		if err := h.Run(k); !errors.Is(err, kernel.ErrMachineCrash) {
			return fail("crash %d at step %d: run = %v", c, at, err)
		}
		// The crash already tore the volatile tier down; audit the NVM
		// image with the guest's own recovery rule before rebooting.
		seq := uint32(mem.NVPeek(jlog))
		xa, xb := uint32(mem.NVPeek(jlog+4)), uint32(mem.NVPeek(jlog+8))
		ck := uint32(mem.NVPeek(jlog + 12))
		if guest.JournalCksum(seq, xa, xb) == ck && seq == uint32(mem.NVPeek(applied))+1 {
			repairs++
		}
		k2 := boot(mem, nil, false)
		if err := h.Run(k2); err != nil {
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

// pstructPassage runs a persistent stack fault-free and reports the
// passage cost of one logged transaction per operation.
func pstructPassage(h *Harness, cfg JournalConfig, kind string, mode core.LogMode) (JournalRow, error) {
	arena := pstructBenchArena(kind, cfg.Ops)
	p := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles})
	p.EnablePersistence()
	var opErr error
	p.Go("main", func(e *uniproc.Env) {
		opErr = pstructBenchOps(e, arena, kind, mode, cfg.Ops, nil)
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

func pstructBenchArena(kind string, ops int) []uniproc.Word {
	if kind == "stack" {
		return make([]uniproc.Word, core.StackArenaWords(ops))
	}
	return make([]uniproc.Word, core.QueueArenaWords(ops))
}

// pstructBenchOps pushes/enqueues 1..ops, bumping committed (when non-nil)
// after each returned operation.
func pstructBenchOps(e *uniproc.Env, arena []uniproc.Word, kind string, mode core.LogMode, ops int, committed *int) error {
	if kind == "stack" {
		s := core.NewPersistentStack(arena, mode)
		s.Recover(e)
		for i := 1; i <= ops; i++ {
			if err := s.Push(e, uniproc.Word(i)); err != nil {
				return err
			}
			if committed != nil {
				*committed++
			}
		}
		return nil
	}
	q := core.NewPersistentQueue(arena, mode)
	q.Recover(e)
	for i := 1; i <= ops; i++ {
		if err := q.Enqueue(e, uniproc.Word(i)); err != nil {
			return err
		}
		if committed != nil {
			*committed++
		}
	}
	return nil
}

// pstructTornSweep crashes the stack workload at seeded persist-operation
// ordinals with torn write-backs and recovers on a fresh processor: the
// recovered stack must hold exactly 1..k for k = committed or committed+1
// — each transaction is all-or-nothing, committed ones never lost.
func pstructTornSweep(h *Harness, cfg JournalConfig, mode core.LogMode) (JournalRow, error) {
	fail := func(format string, args ...any) (JournalRow, error) {
		return JournalRow{}, fmt.Errorf("uniproc/stack-"+mode.String()+"-torn: "+format+" (repro: %s)",
			append(args, tableRepro("journal", cfg.Seed))...)
	}
	cal := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles})
	cal.EnablePersistence()
	cal.Go("main", func(e *uniproc.Env) {
		_ = pstructBenchOps(e, pstructBenchArena("stack", cfg.Ops), "stack", mode, cfg.Ops, nil)
	})
	if err := h.Run(cal); err != nil {
		return fail("calibration: %v", err)
	}
	span := cal.PersistOps()

	salt := uint64(0x7A) + uint64(mode)
	var repairs uint64
	for c := 0; c < cfg.Crashes; c++ {
		at := chaos.Derive(cfg.Seed, salt, uint64(c))%span + 1
		arena := pstructBenchArena("stack", cfg.Ops)
		committed := 0
		p1 := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles,
			Faults: chaos.OneShot{Point: chaos.PointPersist, N: at,
				Action: chaos.Action{CrashVolatile: true, Torn: true}}})
		p1.EnablePersistence()
		p1.Go("main", func(e *uniproc.Env) {
			_ = pstructBenchOps(e, arena, "stack", mode, cfg.Ops, &committed)
		})
		if err := h.Run(p1); !errors.Is(err, uniproc.ErrMachineCrash) {
			return fail("crash %d at persist op %d: run = %v", c, at, err)
		}
		// Recover on a fresh processor from the arena words alone, then
		// drain the stack: it must pop k..1 for an admissible k.
		var vals []uniproc.Word
		var repaired bool
		p2 := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles})
		p2.EnablePersistence()
		p2.Go("main", func(e *uniproc.Env) {
			s := core.NewPersistentStack(arena, mode)
			repaired = s.Recover(e)
			for {
				v, ok := s.Pop(e)
				if !ok {
					break
				}
				vals = append(vals, v)
			}
		})
		if err := h.Run(p2); err != nil {
			return fail("crash %d at persist op %d: recovery run: %v", c, at, err)
		}
		k := len(vals)
		if k != committed && k != committed+1 {
			return fail("crash %d at persist op %d: recovered %d elements with %d committed", c, at, k, committed)
		}
		for i, v := range vals {
			if int(v) != k-i {
				return fail("crash %d at persist op %d: recovered stack %v is not 1..%d", c, at, vals, k)
			}
		}
		if repaired {
			repairs++
		}
	}
	return JournalRow{
		Scenario: "uniproc/stack-torn-sweep", Mode: mode.String(), Seed: cfg.Seed,
		Crashes: cfg.Crashes, Ops: cfg.Ops, Repairs: repairs,
		Outcome: "all-or-nothing recovery",
	}, nil
}

// memfsJournalReplay appends through the journaled memfs, tears it down
// with one seeded torn crash, and remounts: every committed append must
// survive, at most the in-flight one may additionally appear, and the
// journal's metrics report the replay.
func memfsJournalReplay(h *Harness, cfg JournalConfig) (JournalRow, error) {
	fail := func(format string, args ...any) (JournalRow, error) {
		return JournalRow{}, fmt.Errorf("memfs/journal-replay: "+format+" (repro: %s)",
			append(args, tableRepro("journal", cfg.Seed))...)
	}
	newProc := func(faults chaos.Injector) *uniproc.Processor {
		p := uniproc.New(uniproc.Config{Quantum: 2000, MaxCycles: cfg.MaxCycles, Faults: faults})
		p.EnablePersistence()
		return p
	}
	workload := func(j *journal.JFS, e *uniproc.Env, committed *int) error {
		if err := j.Create(e, "/log"); err != nil {
			return err
		}
		*committed = 0 // Create counts as op 0's setup, appends are the ops
		for i := 0; i < cfg.Ops; i++ {
			if err := j.Append(e, "/log", []byte{'x'}); err != nil {
				return err
			}
			*committed++
		}
		return nil
	}

	cal := newProc(nil)
	calArena := make([]uniproc.Word, 4096)
	var calErr error
	cal.Go("main", func(e *uniproc.Env) {
		j, err := journal.MountFS(e, cthreads.New(core.NewRAS()), calArena, journal.Options{})
		if err != nil {
			calErr = err
			return
		}
		n := 0
		calErr = workload(j, e, &n)
	})
	if err := h.Run(cal); err != nil {
		return fail("calibration: %v", err)
	}
	if calErr != nil {
		return fail("calibration: %v", calErr)
	}
	span := cal.PersistOps()

	var written, replayed uint64
	var crashes int
	for c := 0; c < cfg.Crashes; c++ {
		at := chaos.Derive(cfg.Seed, 0x8A, uint64(c))%span + 1
		arena := make([]uniproc.Word, 4096)
		committed := 0
		reg1 := obs.NewRegistry()
		p1 := newProc(chaos.OneShot{Point: chaos.PointPersist, N: at,
			Action: chaos.Action{CrashVolatile: true, Torn: true}})
		p1.Go("main", func(e *uniproc.Env) {
			j, err := journal.MountFS(e, cthreads.New(core.NewRAS()), arena, journal.Options{Metrics: reg1})
			if err != nil {
				return
			}
			_ = workload(j, e, &committed)
		})
		if err := h.Run(p1); !errors.Is(err, uniproc.ErrMachineCrash) {
			return fail("crash %d at persist op %d: run = %v", c, at, err)
		}
		crashes++
		written += reg1.CounterValue("journal_records_written")

		reg2 := obs.NewRegistry()
		var got []byte
		var mountErr error
		p2 := newProc(nil)
		p2.Go("main", func(e *uniproc.Env) {
			j, err := journal.MountFS(e, cthreads.New(core.NewRAS()), arena, journal.Options{Metrics: reg2})
			if err != nil {
				mountErr = err
				return
			}
			got, _ = j.ReadFile(e, "/log")
		})
		if err := h.Run(p2); err != nil {
			return fail("crash %d at persist op %d: remount run: %v", c, at, err)
		}
		if mountErr != nil {
			return fail("crash %d at persist op %d: remount: %v", c, at, mountErr)
		}
		replayed += reg2.CounterValue("journal_records_replayed")
		if committed > 0 && (len(got) < committed || len(got) > committed+1) {
			return fail("crash %d at persist op %d: /log has %d bytes with %d committed", c, at, len(got), committed)
		}
	}
	return JournalRow{
		Scenario: "memfs/journal-replay", Seed: cfg.Seed, Crashes: crashes,
		Ops: cfg.Ops, PersistOps: written, Repairs: replayed,
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
//   - uniproc torn sweep: the stack crashed at seeded persist ordinals,
//     recovered cold, all-or-nothing transactionality required;
//   - memfs journal replay: seeded torn crashes over the journaled
//     filesystem, committed appends never lost, metrics reporting the
//     records written and replayed;
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

	m, err := mcheck.BuildModel("journal", map[string]string{"mode": "redo", "torn": "1"})
	if err != nil {
		return nil, err
	}
	e := &mcheck.Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		return nil, err
	}
	if !rep.Passed() {
		return nil, fmt.Errorf("mcheck/journal-boundaries: %v (repro: %s)", rep, tableRepro("journal", cfg.Seed))
	}
	rows = append(rows, JournalRow{Scenario: "mcheck/journal-boundaries", Mode: "redo",
		Crashes: rep.Schedules - 1, Outcome: "exhaustive K=1 torn, zero violations"})
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

package bench

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/smp"
)

// SMPConfig parametrizes the SMP lock sweep.
type SMPConfig struct {
	CPUList []int      // CPU counts to sweep
	Workers int        // threads per CPU
	Iters   int        // passages per thread
	Modes   []smp.Mode // RMR counting modes
	Seed    uint64     // recorded for replayability; the sweep is deterministic
	// MaxCycles bounds every individual run; 0 uses the kernel default.
	MaxCycles uint64
}

// DefaultSMPConfig returns the configuration `rasbench -table smp` and
// `make smp` run.
func DefaultSMPConfig() SMPConfig {
	return SMPConfig{
		CPUList: []int{1, 2, 4},
		Workers: 2,
		Iters:   100,
		Modes:   []smp.Mode{smp.CC, smp.DSM},
		Seed:    1,
	}
}

// SMPRow is one (lock, CPU count, mode) cell of the SMP table. Passage
// cost is aggregate work — the sum of every CPU's cycles — divided by
// total passages; RMRPerPassage is the recoverable-mutual-exclusion
// literature's quality metric, remote memory references per passage.
type SMPRow struct {
	Lock             string  `json:"lock"`
	CPUs             int     `json:"cpus"`
	Threads          int     `json:"threads"` // total across CPUs
	Mode             string  `json:"mode"`
	Passages         uint64  `json:"passages"`
	CyclesPerPassage float64 `json:"cycles_per_passage"`
	MicrosPerPassage float64 `json:"micros_per_passage"`
	RMRs             uint64  `json:"rmrs"`
	RMRPerPassage    float64 `json:"rmr_per_passage"`
	Restarts         uint64  `json:"restarts"`
}

// SMPCounterSystem loads the §7 shared-counter guest for lock onto a
// fresh system and spawns workers threads on each CPU, each making iters
// passages. The smp table and rasvm's smp demo both build through it.
func SMPCounterSystem(cfg smp.Config, lock guest.SMPLock, workers, iters int) (*smp.System, *asm.Program) {
	sys := smp.New(cfg)
	prog := guest.Assemble(guest.SMPCounterProgram(lock, cfg.CPUs))
	sys.Load(prog)
	entry := prog.MustSymbol("worker")
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		for w := 0; w < workers; w++ {
			sys.Spawn(cpu, entry, guest.StackTop(smp.GlobalID(cpu, w)), isa.Word(iters))
		}
	}
	return sys, prog
}

// smpRun executes one cell: `workers` threads per CPU, each making
// `iters` passages through lock l, on an SMP() machine with the given
// coherence mode. The counter is verified — a lost update fails the run.
func smpRun(cfg SMPConfig, mode smp.Mode, lock guest.SMPLock, cpus int) (SMPRow, error) {
	sys, prog := SMPCounterSystem(smp.Config{CPUs: cpus, Mode: mode, MaxCycles: cfg.MaxCycles},
		lock, cfg.Workers, cfg.Iters)
	attachSMP(sys)
	err := sys.Run()
	noteSMPRun(sys)
	if err != nil {
		return SMPRow{}, fmt.Errorf("bench: smp %s/%dcpu/%s: %w", lock, cpus, mode, err)
	}
	passages := uint64(cpus * cfg.Workers * cfg.Iters)
	if got := sys.Mem.Peek(prog.MustSymbol("counter")); uint64(got) != passages {
		return SMPRow{}, fmt.Errorf("bench: smp %s/%dcpu/%s: counter %d, want %d — mutual exclusion violated",
			lock, cpus, mode, got, passages)
	}
	cycles := sys.TotalCycles()
	rmrs := sys.TotalRMRs()
	return SMPRow{
		Lock:             lock.String(),
		CPUs:             cpus,
		Threads:          cpus * cfg.Workers,
		Mode:             mode.String(),
		Passages:         passages,
		CyclesPerPassage: float64(cycles) / float64(passages),
		MicrosPerPassage: arch.SMP().Micros(cycles) / float64(passages),
		RMRs:             rmrs,
		RMRPerPassage:    float64(rmrs) / float64(passages),
		Restarts:         sys.TotalRestarts(),
	}, nil
}

// TableSMP sweeps the §7 hybrid lock against a pure interlocked spinlock
// and an ll/sc mutex over CPU count × counting mode. The hybrid's claim —
// intra-CPU arbitration by restartable atomic sequence, so local waiters
// never touch the bus — shows up as lower passage cost than the pure
// spinlock whenever a CPU hosts more than one contender, and as zero
// RMRs per passage whenever there is only one CPU.
func TableSMP(cfg SMPConfig) ([]SMPRow, error) {
	if len(cfg.CPUList) == 0 {
		cfg.CPUList = []int{1, 2, 4}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []smp.Mode{smp.CC, smp.DSM}
	}
	locks := []guest.SMPLock{guest.SMPHybrid, guest.SMPSpin, guest.SMPLLSC}
	var rows []SMPRow
	for _, mode := range cfg.Modes {
		for _, lock := range locks {
			for _, cpus := range cfg.CPUList {
				row, err := smpRun(cfg, mode, lock, cpus)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatSMP renders the SMP table.
func FormatSMP(rows []SMPRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %5s %8s %5s %10s %12s %12s %14s %9s\n",
		"Lock", "CPUs", "Threads", "Mode", "Passages", "Cycles/pass", "Time (us)", "RMR/passage", "Restarts")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %5d %8d %5s %10d %12.1f %12.3f %14.3f %9d\n",
			r.Lock, r.CPUs, r.Threads, r.Mode, r.Passages,
			r.CyclesPerPassage, r.MicrosPerPassage, r.RMRPerPassage, r.Restarts)
	}
	return b.String()
}

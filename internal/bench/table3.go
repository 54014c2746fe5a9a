package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps/afsbench"
	"repro/internal/apps/parthenon"
	"repro/internal/apps/proton"
	"repro/internal/apps/textfmt"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/guest"
	"repro/internal/memfs"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
	"repro/internal/vmach/kernel"
)

// Scale sets the workload sizes for the application benchmarks (Table 3).
// The defaults are sized to finish quickly; cmd/rasbench can scale them up
// toward the paper's multi-second runs.
type Scale struct {
	TextParas  int
	TextWords  int
	AFSDirs    int
	AFSFiles   int
	AFSBytes   int
	ParthChain int // chain-refutation length for the prover workload
	ProtonKB   int
	Quantum    uint64
	Seed       uint64
}

// DefaultScale returns a small but representative workload.
func DefaultScale() Scale {
	return Scale{
		TextParas: 30, TextWords: 80,
		AFSDirs: 3, AFSFiles: 5, AFSBytes: 4096,
		ParthChain: 60,
		ProtonKB:   48,
		Quantum:    20000,
		Seed:       1992,
	}
}

// AppStats is one measured run of one application.
type AppStats struct {
	Secs        float64 `json:"secs"`
	EmulTraps   uint64  `json:"emul_traps"`
	Restarts    uint64  `json:"restarts"`
	Suspensions uint64  `json:"suspensions"` // involuntary suspensions + blocking waits
	Holdups     uint64  `json:"holdups"`     // lock-found-held events (§5.3)
}

// T3Row is one line of Table 3: an application under kernel emulation and
// under restartable atomic sequences.
type T3Row struct {
	Program string   `json:"program"`
	Emul    AppStats `json:"emul"`
	RAS     AppStats `json:"ras"`
}

// appRunner sets up a processor/thread package and runs one application's
// client thread.
func runApp(h *Harness, s Scale, mech core.Mechanism, needServer bool,
	client func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error) (AppStats, error) {
	proc := uniproc.New(uniproc.Config{
		Profile: arch.R3000(), Quantum: s.Quantum, JitterSeed: s.Seed,
	})
	pkg := cthreads.New(mech)
	var srv *uxserver.Server
	if needServer {
		srv = uxserver.Start(proc, pkg, memfs.New(pkg), 2)
	}
	var appErr error
	proc.Go("app", func(e *uniproc.Env) {
		appErr = client(e, pkg, srv)
		if srv != nil {
			srv.Shutdown(e)
		}
	})
	if err := h.Run(proc); err != nil {
		return AppStats{}, err
	}
	if appErr != nil {
		return AppStats{}, appErr
	}
	return AppStats{
		Secs:        proc.Micros() / 1e6,
		EmulTraps:   proc.Stats.EmulTraps,
		Restarts:    proc.Stats.Restarts,
		Suspensions: proc.Stats.Suspensions + proc.Stats.Blocks,
		Holdups:     proc.HoldupCount(),
	}, nil
}

// table3Programs enumerates the five applications of Table 3.
func table3Programs(s Scale) []struct {
	name       string
	needServer bool
	client     func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error
} {
	prove := func(workers int) func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error {
		return func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error {
			input := append(parthenon.Chain(s.ParthChain), parthenon.Pigeonhole(3, 2)...)
			res := parthenon.Run(e, parthenon.Config{Pkg: pkg, Workers: workers}, input)
			if !res.Proved {
				return fmt.Errorf("parthenon-%d: refutation lost", workers)
			}
			return nil
		}
	}
	return []struct {
		name       string
		needServer bool
		client     func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error
	}{
		{"text-format", true, func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error {
			_, err := textfmt.Run(e, textfmt.Config{
				Server: srv, Paragraphs: s.TextParas, WordsPerPara: s.TextWords,
			})
			return err
		}},
		{"afs-bench", true, func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error {
			_, err := afsbench.Run(e, afsbench.Config{
				Server: srv, Dirs: s.AFSDirs, FilesPerDir: s.AFSFiles, FileBytes: s.AFSBytes,
			})
			return err
		}},
		{"parthenon-1", false, prove(1)},
		{"parthenon-10", false, prove(10)},
		{"proton-64", true, func(e *uniproc.Env, pkg *cthreads.Pkg, srv *uxserver.Server) error {
			res, err := proton.Run(e, proton.Config{
				Pkg: pkg, Server: srv, FileSize: s.ProtonKB * 1024,
			})
			if err == nil && res.Bytes != s.ProtonKB*1024 {
				return fmt.Errorf("proton: transferred %d bytes", res.Bytes)
			}
			return err
		}},
	}
}

// Table3 reproduces Table 3: each application under kernel emulation and
// under restartable atomic sequences.
func Table3(h *Harness, s Scale) ([]T3Row, error) {
	prof := arch.R3000()
	var rows []T3Row
	for _, p := range table3Programs(s) {
		emul, err := runApp(h, s, core.NewKernelEmul(prof), p.needServer, p.client)
		if err != nil {
			return nil, fmt.Errorf("%s (emulation): %w", p.name, err)
		}
		ras, err := runApp(h, s, core.NewRAS(), p.needServer, p.client)
		if err != nil {
			return nil, fmt.Errorf("%s (ras): %w", p.name, err)
		}
		rows = append(rows, T3Row{Program: p.name, Emul: emul, RAS: ras})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 in the paper's shape.
func FormatTable3(rows []T3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %9s %9s | %10s %8s | %11s %11s\n",
		"Program", "Emul(s)", "RAS(s)", "EmulTraps", "Restarts", "Susp(Emul)", "Susp(RAS)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9.4f %9.4f | %10d %8d | %11d %11d\n",
			r.Program, r.Emul.Secs, r.RAS.Secs,
			r.Emul.EmulTraps, r.RAS.Restarts,
			r.Emul.Suspensions, r.RAS.Suspensions)
	}
	return b.String()
}

// HoldupRow captures §5.3's deeper look at parthenon-10: how often a thread
// found a Test-And-Set lock held by a (suspended) holder. The paper
// observed roughly twice as many holdups under kernel emulation.
type HoldupRow struct {
	Mechanism string  `json:"mechanism"`
	Holdups   uint64  `json:"holdups"`
	Secs      float64 `json:"secs"`
}

// TableHoldups reproduces the §5.3 lock-holdup comparison on parthenon-10.
func TableHoldups(h *Harness, s Scale) ([]HoldupRow, error) {
	prof := arch.R3000()
	client := table3Programs(s)[3] // parthenon-10
	var rows []HoldupRow
	for _, mc := range []struct {
		name string
		m    core.Mechanism
	}{
		{"Kernel Emulation", core.NewKernelEmul(prof)},
		{"Restartable Atomic Sequences", core.NewRAS()},
	} {
		st, err := runApp(h, s, mc.m, client.needServer, client.client)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HoldupRow{mc.name, st.Holdups, st.Secs})
	}
	return rows, nil
}

// FormatHoldups renders the holdup comparison.
func FormatHoldups(rows []HoldupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %10s %10s\n", "parthenon-10 under", "Holdups", "Secs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %10d %10.4f\n", r.Mechanism, r.Holdups, r.Secs)
	}
	return b.String()
}

// AblationRow is one configuration of the §4.1 PC-check placement study,
// run on the instruction-level simulator with the designated-sequence
// workload under heavy preemption.
type AblationRow struct {
	Config      string  `json:"config"`
	Micros      float64 `json:"micros"`
	Restarts    uint64  `json:"restarts"`
	Rejects     uint64  `json:"rejects"`
	Suspensions uint64  `json:"suspensions"`
}

// TableAblation compares early (suspend-time, Mach) vs late (resume-time,
// Taos) PC checks for the designated strategy, and the user-level
// detection alternative, on an adversarial 61-cycle quantum.
func TableAblation(h *Harness, workers, iters int) ([]AblationRow, error) {
	prof := arch.R3000()
	type cfg struct {
		name  string
		m     guest.Mechanism
		strat kernel.Strategy
		at    kernel.CheckTime
	}
	cfgs := []cfg{
		{"designated, check at suspend", guest.MechDesignated, &kernel.Designated{}, kernel.CheckAtSuspend},
		{"designated, check at resume", guest.MechDesignated, &kernel.Designated{}, kernel.CheckAtResume},
		{"registration, check at suspend", guest.MechRegistered, &kernel.Registration{}, kernel.CheckAtSuspend},
		{"user-level detection", guest.MechUserLevel, &kernel.UserLevel{}, kernel.CheckAtResume},
	}
	var rows []AblationRow
	for _, c := range cfgs {
		prog := guest.Assemble(guest.MutexCounterProgram(c.m, workers, iters))
		k := kernel.Boot(kernel.Config{Profile: prof, Strategy: c.strat, CheckAt: c.at, Quantum: 61},
			prog, "main", guest.StackTop(0), true)
		if err := h.Run(k); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got != uint32(workers*iters) {
			return nil, fmt.Errorf("%s: counter %d, want %d", c.name, got, workers*iters)
		}
		rows = append(rows, AblationRow{
			Config:      c.name,
			Micros:      k.Micros(),
			Restarts:    k.Stats.Restarts,
			Rejects:     k.Stats.CheckRejects,
			Suspensions: k.Stats.Suspensions,
		})
	}
	return rows, nil
}

// FormatAblation renders the placement study.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %10s %9s %9s %12s\n",
		"Kernel configuration", "Time (us)", "Restarts", "Rejects", "Suspensions")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %10.1f %9d %9d %12d\n",
			r.Config, r.Micros, r.Restarts, r.Rejects, r.Suspensions)
	}
	return b.String()
}

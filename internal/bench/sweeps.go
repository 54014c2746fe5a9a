package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps/afsbench"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
)

// QuantumRow is one point of the quantum-sensitivity sweep: how often
// restartable sequences are actually interrupted as the timeslice varies.
type QuantumRow struct {
	Quantum        uint64  `json:"quantum"`
	AtomicOps      uint64  `json:"atomic_ops"`
	Suspensions    uint64  `json:"suspensions"`
	Restarts       uint64  `json:"restarts"`
	RestartsPerOp  float64 `json:"restarts_per_op"`  // restarts / atomic operations
	RestartsPerSus float64 `json:"restarts_per_sus"` // restarts / suspensions
}

// TableQuantumSweep quantifies the paper's central bet — "short atomic
// sequences are rarely interrupted" — as a function of the scheduling
// quantum. Even at absurdly small quanta the restart rate per atomic
// operation stays small; at realistic quanta it is negligible.
func TableQuantumSweep(h *Harness, workers, iters int, quanta []uint64) ([]QuantumRow, error) {
	if len(quanta) == 0 {
		quanta = []uint64{50, 200, 1000, 10000, 100000}
	}
	ops := uint64(workers * iters)
	var rows []QuantumRow
	for _, q := range quanta {
		proc := uniproc.New(uniproc.Config{Quantum: q, JitterSeed: 5})
		lock := core.NewTASLock(core.NewRAS())
		var counter core.Word
		for i := 0; i < workers; i++ {
			proc.Go("worker", func(e *uniproc.Env) {
				for it := 0; it < iters; it++ {
					lock.Acquire(e)
					v := e.Load(&counter)
					e.ChargeALU(3)
					e.Store(&counter, v+1)
					lock.Release(e)
				}
			})
		}
		if err := h.Run(proc); err != nil {
			return nil, err
		}
		if counter != core.Word(ops) {
			return nil, fmt.Errorf("quantum %d: counter %d, want %d", q, counter, ops)
		}
		row := QuantumRow{
			Quantum:     q,
			AtomicOps:   ops,
			Suspensions: proc.Stats.Suspensions,
			Restarts:    proc.Stats.Restarts,
		}
		row.RestartsPerOp = float64(row.Restarts) / float64(ops)
		if row.Suspensions > 0 {
			row.RestartsPerSus = float64(row.Restarts) / float64(row.Suspensions)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatQuantumSweep renders the sweep.
func FormatQuantumSweep(rows []QuantumRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %10s %14s %14s\n",
		"Quantum(cy)", "AtomicOps", "Suspensions", "Restarts", "Restart/Op", "Restart/Susp")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %10d %12d %10d %14.5f %14.3f\n",
			r.Quantum, r.AtomicOps, r.Suspensions, r.Restarts, r.RestartsPerOp, r.RestartsPerSus)
	}
	return b.String()
}

// WorkerRow is one point of the server worker-count study.
type WorkerRow struct {
	Workers  int     `json:"workers"`
	Secs     float64 `json:"secs"`
	Switches uint64  `json:"switches"`
	Blocks   uint64  `json:"blocks"`
}

// TableServerWorkers runs the afs-bench script against the multithreaded
// user-level server with a varying worker pool. On a uniprocessor extra
// workers cannot add throughput for a single client — they only add context
// switching — which is the §1.1 observation that microkernel service
// threading exposes synchronization cost rather than hiding it.
func TableServerWorkers(h *Harness, counts []int) ([]WorkerRow, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	var rows []WorkerRow
	for _, w := range counts {
		proc := uniproc.New(uniproc.Config{Profile: arch.R3000(), Quantum: 20000, JitterSeed: 23})
		pkg := cthreads.New(core.NewRAS())
		srv := uxserver.Start(proc, pkg, memfs.New(pkg), w)
		var appErr error
		proc.Go("client", func(e *uniproc.Env) {
			_, appErr = afsbench.Run(e, afsbench.Config{
				Server: srv, Dirs: 3, FilesPerDir: 4, FileBytes: 2048,
			})
			srv.Shutdown(e)
		})
		if err := h.Run(proc); err != nil {
			return nil, err
		}
		if appErr != nil {
			return nil, appErr
		}
		rows = append(rows, WorkerRow{
			Workers:  w,
			Secs:     proc.Micros() / 1e6,
			Switches: proc.Stats.Switches,
			Blocks:   proc.Stats.Blocks,
		})
	}
	return rows, nil
}

// FormatServerWorkers renders the worker study.
func FormatServerWorkers(rows []WorkerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "Workers", "Secs", "Switches", "Blocks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %10.4f %10d %10d\n", r.Workers, r.Secs, r.Switches, r.Blocks)
	}
	return b.String()
}

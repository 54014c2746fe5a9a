package bench

import (
	"fmt"

	"repro/internal/mcheck"
	"repro/internal/obs"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// Harness is the scope of one table: every substrate the table builds
// runs through its Run method, which traces the run and counts it. A
// table regenerates the paper's numbers from many fresh substrate
// instances, each starting its virtual clock at zero with thread IDs
// from zero, so the runs share one trace only through an obs.Rebase
// that shifts each onto fresh time and thread ranges. The zero value
// traces nothing and counts every run.
type Harness struct {
	// Trace, when non-nil, receives every run's events. Harnesses of
	// consecutive tables share one Rebase to keep one monotone timeline.
	Trace *obs.Rebase
	// Stats accumulates the counters every run added.
	Stats RunStats
}

// RunStats aggregates substrate counters across the runs behind one table.
type RunStats struct {
	Runs        int    `json:"runs"`
	Cycles      uint64 `json:"cycles"`
	Restarts    uint64 `json:"restarts"`
	Preemptions uint64 `json:"preemptions"`
	EmulTraps   uint64 `json:"emul_traps"`
}

// Substrate is one machine a table runs: a *kernel.Kernel, a
// *uniproc.Processor or an *smp.System. It is the checker's type, so a
// model's instances run through the same Harness.
type Substrate = mcheck.Substrate

// Run attaches the trace to s as a new rebased segment, runs s to
// completion, and folds in the counters this run added.
func (h *Harness) Run(s Substrate) error { return h.run(s, s.Run) }

// run is Run with drive in place of s.Run — the shape mcheck.Options.Run
// takes, so the checker's models drive their substrates through it.
// Counting the difference keeps a restored kernel, or a checker instance
// driven past a pause, from recounting work done before drive.
func (h *Harness) run(s Substrate, drive func() error) error {
	h.Attach(s)
	before := counters(s)
	err := drive()
	after := counters(s)
	h.Stats.Runs++
	h.Stats.Cycles += after.Cycles - before.Cycles
	h.Stats.Restarts += after.Restarts - before.Restarts
	h.Stats.Preemptions += after.Preemptions - before.Preemptions
	h.Stats.EmulTraps += after.EmulTraps - before.EmulTraps
	return err
}

// Attach starts a new rebased trace segment and attaches it to s. Run
// calls it; a caller that drives a kernel in pieces (RunSteps to a
// checkpoint cut, then Run) calls it once instead, so the pieces share
// one segment.
func (h *Harness) Attach(s Substrate) {
	if h.Trace == nil {
		return
	}
	h.Trace.Advance()
	switch s := s.(type) {
	case *kernel.Kernel:
		s.Tracer = h.Trace
	case *uniproc.Processor:
		s.Tracer = h.Trace
	case *smp.System:
		// One segment covers every CPU: the Chrome exporter splits
		// the per-CPU streams into process groups by their CPU stamp.
		s.AttachTracer(h.Trace)
	}
}

// counters reads s's cumulative counters. The runtime layer has no
// timer/suspension split, so there every involuntary suspension counts
// as a preemption.
func counters(s Substrate) RunStats {
	switch s := s.(type) {
	case *kernel.Kernel:
		return RunStats{Cycles: s.M.Stats.Cycles, Restarts: s.Stats.Restarts,
			Preemptions: s.Stats.Preemptions, EmulTraps: s.Stats.EmulTraps}
	case *uniproc.Processor:
		return RunStats{Cycles: s.Clock(), Restarts: s.Stats.Restarts,
			Preemptions: s.Stats.Suspensions, EmulTraps: s.Stats.EmulTraps}
	case *smp.System:
		rs := RunStats{Cycles: s.TotalCycles()}
		for _, k := range s.CPUs {
			rs.Restarts += k.Stats.Restarts
			rs.Preemptions += k.Stats.Preemptions
			rs.EmulTraps += k.Stats.EmulTraps
		}
		return rs
	}
	panic(fmt.Sprintf("bench: unknown substrate %T", s))
}

// runKernel and runProcessor are Run in the shapes kernel.Lives and the
// resilience worlds take.
func (h *Harness) runKernel(k *kernel.Kernel) error        { return h.Run(k) }
func (h *Harness) runProcessor(p *uniproc.Processor) error { return h.Run(p) }

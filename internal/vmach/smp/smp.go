package smp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// ThreadStride spaces each CPU's thread IDs in the global ID namespace:
// CPU c's local thread t is global c*ThreadStride+t. The stride bounds a
// CPU to 64 threads, far above any workload here, and keeps global IDs
// usable as stack-slot indices (guest.StackTop).
const ThreadStride = 64

// GlobalID maps a (cpu, local thread) pair into the global ID namespace.
func GlobalID(cpu, local int) int { return cpu*ThreadStride + local }

// Config parametrizes an SMP system. The zero value of every field has a
// sensible default; Config{CPUs: 4} is a working machine.
type Config struct {
	// CPUs is the number of processors (default 1).
	CPUs int
	// Profile is the per-CPU cost model (default arch.SMP(): R3000 base
	// costs plus a bus-locked interlocked tas and ll/sc).
	Profile *arch.Profile
	// NewStrategy builds one recovery strategy per CPU — per-CPU recovery
	// is the point of §7: a sequence interrupted on CPU k restarts only
	// the thread on CPU k. Default: Taos-style Designated.
	NewStrategy func() kernel.Strategy
	// CheckAt is when the PC check runs (default CheckAtResume, as Taos).
	CheckAt kernel.CheckTime
	// Quantum is the per-CPU timeslice in cycles (0: kernel default).
	Quantum uint64
	// MaxCycles bounds each CPU's run (0: kernel default).
	MaxCycles uint64
	// Mode selects the RMR counting model (default CC).
	Mode Mode
	// Costs are the coherence surcharges (zero value: DefaultCosts).
	Costs Costs
	// Faults, when non-nil, supplies a per-CPU fault injector; faults
	// target a (cpu, thread) pair because each injector sees only its
	// CPU's threads. A nil return disables injection on that CPU.
	Faults func(cpu int) chaos.Injector
	// Watchdog is the per-CPU restart-livelock watchdog.
	Watchdog chaos.Watchdog
}

// System is an N-CPU shared-memory machine: one kernel per CPU over one
// physical memory, coupled by a coherence directory.
type System struct {
	Mem  *vmach.Memory
	Coh  *Coherence
	CPUs []*kernel.Kernel

	done  []bool
	verds []error
}

// defaultedConfig fills every zero field with its default.
func defaultedConfig(cfg Config) Config {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.Profile == nil {
		cfg.Profile = arch.SMP()
	}
	if cfg.NewStrategy == nil {
		cfg.NewStrategy = func() kernel.Strategy { return &kernel.Designated{} }
	}
	if cfg.CheckAt == 0 {
		cfg.CheckAt = kernel.CheckAtResume
	}
	if (cfg.Costs == Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	return cfg
}

// New builds a system from cfg.
func New(cfg Config) *System {
	s, _ := build(defaultedConfig(cfg), func(_ int, kcfg kernel.Config) (*kernel.Kernel, error) {
		return kernel.New(kcfg), nil
	})
	return s
}

// build wires a system over one fresh shared memory: CPU i's kernel comes
// from newCPU with cfg's per-CPU kernel config, then joins the coherence
// directory and the global liveness oracle. cfg must be defaulted apart
// from CPUs, which build takes as given.
func build(cfg Config, newCPU func(i int, kcfg kernel.Config) (*kernel.Kernel, error)) (*System, error) {
	s := &System{
		Mem:   vmach.NewMemory(),
		Coh:   NewCoherence(cfg.Mode, cfg.Costs),
		done:  make([]bool, cfg.CPUs),
		verds: make([]error, cfg.CPUs),
	}
	for i := 0; i < cfg.CPUs; i++ {
		kcfg := kernel.Config{
			Profile:   cfg.Profile,
			Strategy:  cfg.NewStrategy(),
			CheckAt:   cfg.CheckAt,
			Quantum:   cfg.Quantum,
			MaxCycles: cfg.MaxCycles,
			Memory:    s.Mem,
			CPUID:     i,
			Watchdog:  cfg.Watchdog,
		}
		if cfg.Faults != nil {
			kcfg.Faults = cfg.Faults(i)
		}
		k, err := newCPU(i, kcfg)
		if err != nil {
			return nil, err
		}
		k.M.Coherence = s.Coh.attach(k.M)
		k.PeerAlive = s.ThreadAliveG
		s.CPUs = append(s.CPUs, k)
	}
	return s, nil
}

// ThreadAliveG answers liveness for a global thread id (GlobalID
// encoding) across every CPU of the complex — the SysThreadAliveG
// oracle. Ids naming no CPU or no thread are dead.
func (s *System) ThreadAliveG(gtid int) bool {
	if gtid < 0 {
		return false
	}
	cpu, local := gtid/ThreadStride, gtid%ThreadStride
	if cpu >= len(s.CPUs) {
		return false
	}
	return s.CPUs[cpu].ThreadAlive(local)
}

// Load loads an assembled program through CPU 0 into the shared memory,
// where every CPU sees it (kernel.Kernel.Load).
func (s *System) Load(p *asm.Program) { s.CPUs[0].Load(p) }

// Spawn creates a ready thread on the given CPU. The caller picks the
// stack; use guest.StackTop(GlobalID(cpu, local)) to keep stacks of
// different CPUs' threads disjoint. It returns the thread (whose ID is
// CPU-local) and its global ID.
func (s *System) Spawn(cpu int, entry, stackTop uint32, args ...isa.Word) (*kernel.Thread, int) {
	t := s.CPUs[cpu].Spawn(entry, stackTop, args...)
	return t, GlobalID(cpu, t.ID)
}

// KillThread kills the given CPU's local thread, as a chaos harness or
// an operator would.
func (s *System) KillThread(cpu, local int) error {
	return s.CPUs[cpu].KillThread(local)
}

// AttachTracer installs one sink on every CPU. Events arrive stamped with
// their CPU (kernel tracing does this natively) and CPU-local thread IDs;
// obs.ChromeWriter renders them as one process group per CPU.
func (s *System) AttachTracer(sink obs.Sink) {
	for _, k := range s.CPUs {
		k.Tracer = sink
	}
}

// StepRound advances every unfinished CPU by one scheduler step, in CPU
// order — the deterministic round-robin interleaving. It reports whether
// every CPU has finished. A CPU that ends with an error stops stepping;
// the error is kept as that CPU's verdict.
func (s *System) StepRound() (finished bool) {
	finished = true
	for i, k := range s.CPUs {
		if s.done[i] {
			continue
		}
		fin, err := k.StepOne()
		if fin {
			s.done[i] = true
			s.verds[i] = err
		} else {
			finished = false
		}
	}
	return finished
}

// StepCPU advances one chosen CPU by up to n scheduler steps in one
// kernel.StepUpTo — the free interleaving primitive the model checker
// builds arbitrary cross-CPU schedules from, where StepRound fixes the
// round-robin order. It returns how many single scheduler steps that
// stood for (at most n; stepping a finished CPU is a no-op that counts
// one) and whether that CPU has now finished; a CPU that ends with an
// error keeps the error as its verdict.
func (s *System) StepCPU(i int, n uint64) (steps uint64, cpuDone bool) {
	if s.done[i] {
		return 1, true
	}
	steps, fin, err := s.CPUs[i].StepUpTo(n)
	if fin {
		s.done[i] = true
		s.verds[i] = err
	}
	return steps, s.done[i]
}

// Done reports whether CPU i has finished.
func (s *System) Done(i int) bool { return s.done[i] }

// AllDone reports whether every CPU has finished.
func (s *System) AllDone() bool {
	for _, d := range s.done {
		if !d {
			return false
		}
	}
	return true
}

// Run steps the system round-robin until every CPU finishes, then returns
// the combined verdict: nil if every CPU ended cleanly, else an error
// naming the first failing CPU.
func (s *System) Run() error {
	for !s.StepRound() {
	}
	return s.Verdict()
}

// Verdict combines the per-CPU outcomes (nil before a CPU finishes).
func (s *System) Verdict() error {
	for i, err := range s.verds {
		if err != nil {
			return fmt.Errorf("cpu%d: %w", i, err)
		}
	}
	return nil
}

// CPUVerdict reports one CPU's outcome.
func (s *System) CPUVerdict(cpu int) error { return s.verds[cpu] }

// TotalCycles sums cycles over CPUs: aggregate work, the numerator of
// cost-per-passage.
func (s *System) TotalCycles() uint64 {
	var n uint64
	for _, k := range s.CPUs {
		n += k.M.Stats.Cycles
	}
	return n
}

// MaxCycles is the slowest CPU's clock: the parallel (wall) time.
func (s *System) MaxCycles() uint64 {
	var n uint64
	for _, k := range s.CPUs {
		if k.M.Stats.Cycles > n {
			n = k.M.Stats.Cycles
		}
	}
	return n
}

// TotalRMRs sums remote memory references over CPUs.
func (s *System) TotalRMRs() uint64 {
	var n uint64
	for _, k := range s.CPUs {
		n += k.M.Stats.RMRs
	}
	return n
}

// TotalRestarts sums RAS rollbacks over CPUs.
func (s *System) TotalRestarts() uint64 {
	var n uint64
	for _, k := range s.CPUs {
		n += k.Stats.Restarts
	}
	return n
}

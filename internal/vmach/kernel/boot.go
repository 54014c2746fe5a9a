package kernel

import (
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/vmach"
)

// Boot is the machine's cold power-on: a kernel over cfg with the
// program image loaded and its main symbol spawned as the first thread.
// A reboot over memory that survived a crash goes through Lives.
func Boot(cfg Config, prog *asm.Program, stackTop uint32) *Kernel {
	k := New(cfg)
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), stackTop)
	return k
}

// PersistConfig is the configuration the persistent guests boot under
// across whole-machine crashes: designated sequences checked at resume,
// a 300-cycle quantum, and a watchdog that extends a livelocked
// sequence's slice.
func PersistConfig(maxCycles uint64) Config {
	return Config{
		Strategy:  &Designated{},
		CheckAt:   CheckAtResume,
		Quantum:   300,
		MaxCycles: maxCycles,
		Watchdog:  chaos.Watchdog{Policy: chaos.WatchdogExtend},
	}
}

// Lives is one persistent machine across its lives. In the
// recoverable-mutual-exclusion model a crash is system-wide and recovery
// re-executes from what is durable, so every life boots the same program
// under the same Config over the one two-tier memory that survives. The
// first Boot is cold: fresh persistent memory, image loaded. Every later
// Boot is warm and does not reload, since the image went in through the
// durable tier and reloading would overwrite the recovery state (lock
// words, journals, applied tables) the program's boot path reads.
//
// The machine owns one kernel for its whole existence: a warm Boot
// resets the kernel the cold one built (and the arch.Profile it chose,
// when Config names none) instead of building another. So the *Kernel
// a Boot returns, its threads and its slices are valid until the next
// Boot, and per-life hooks — Tracer, Profiler, PeerAlive — start every
// life unset and are installed again for each one, by the Runner or by
// the caller between Boot and Run. A Lives must not be copied: copies
// would share that kernel.
type Lives struct {
	_ noCopy

	Prog     *asm.Program
	StackTop uint32 // main's initial stack pointer
	Config   Config // every life's; Boot sets Memory and Faults
	// Runner runs each life and the calibration run; nil means
	// (*Kernel).Run.
	Runner func(*Kernel) error

	k *Kernel // nil before the first Boot
}

// noCopy makes go vet's copylocks check report a copied Lives.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Memory is the machine's persistent memory, nil before the first Boot.
func (l *Lives) Memory() *vmach.Memory {
	if l.k == nil {
		return nil
	}
	return l.k.M.Mem
}

// Boot starts the machine's next life under faults (nil for a clean
// life): cold the first time, warm after that. The kernel it returns is
// valid until the next Boot.
func (l *Lives) Boot(faults chaos.Injector) *Kernel {
	if l.k == nil {
		l.k = l.cold(faults)
		return l.k
	}
	cfg := l.Config
	cfg.Memory, cfg.Faults = l.k.M.Mem, faults
	if cfg.Profile == nil {
		cfg.Profile = l.k.Profile
	}
	l.k.reset(cfg)
	l.k.Spawn(l.Prog.MustSymbol("main"), l.StackTop)
	return l.k
}

// Run runs one life through the Runner.
func (l *Lives) Run(k *Kernel) error {
	if l.Runner == nil {
		return k.Run()
	}
	return l.Runner(k)
}

// Calibrate runs a clean cold life on throwaway memory, with a kernel of
// its own, and returns its step count, the span crash steps are drawn
// from.
func (l *Lives) Calibrate() (uint64, error) {
	k := l.cold(nil)
	if err := l.Run(k); err != nil {
		return 0, err
	}
	return k.Steps(), nil
}

// cold builds a cold life's kernel over fresh persistent memory.
func (l *Lives) cold(faults chaos.Injector) *Kernel {
	cfg := l.Config
	cfg.Memory, cfg.Faults = vmach.NewMemory(), faults
	cfg.Memory.EnablePersistence()
	return Boot(cfg, l.Prog, l.StackTop)
}

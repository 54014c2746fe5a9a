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
type Lives struct {
	Prog     *asm.Program
	StackTop uint32 // main's initial stack pointer
	Config   Config // every life's; Boot sets Memory and Faults
	// Runner runs each life and the calibration run; nil means
	// (*Kernel).Run.
	Runner func(*Kernel) error

	mem *vmach.Memory
}

// Memory is the machine's persistent memory, nil before the first Boot.
func (l *Lives) Memory() *vmach.Memory { return l.mem }

// Boot starts the machine's next life under faults (nil for a clean
// life): cold the first time, warm after that.
func (l *Lives) Boot(faults chaos.Injector) *Kernel {
	k := l.life(l.mem, faults)
	l.mem = k.M.Mem
	return k
}

// Run runs one life through the Runner.
func (l *Lives) Run(k *Kernel) error {
	if l.Runner == nil {
		return k.Run()
	}
	return l.Runner(k)
}

// Calibrate runs a clean cold life on throwaway memory and returns its
// step count, the span crash steps are drawn from.
func (l *Lives) Calibrate() (uint64, error) {
	k := l.life(nil, nil)
	if err := l.Run(k); err != nil {
		return 0, err
	}
	return k.Steps(), nil
}

// life builds one life's kernel: warm over mem, or cold over fresh
// persistent memory when mem is nil.
func (l *Lives) life(mem *vmach.Memory, faults chaos.Injector) *Kernel {
	cfg := l.Config
	cfg.Memory, cfg.Faults = mem, faults
	if mem == nil {
		cfg.Memory = vmach.NewMemory()
		cfg.Memory.EnablePersistence()
		return Boot(cfg, l.Prog, l.StackTop)
	}
	k := New(cfg)
	k.Spawn(l.Prog.MustSymbol("main"), l.StackTop)
	return k
}

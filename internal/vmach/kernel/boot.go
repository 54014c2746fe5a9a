package kernel

import (
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/vmach"
)

// Boot is the machine's power-on/reboot entry point: it builds a kernel
// over cfg (whose Memory field carries whatever state the previous life
// of the machine left behind) and spawns the program's entry symbol as
// thread 1.
//
// A COLD boot loads the program image into memory first. A WARM boot —
// reboot-in-place after a machine crash — does not: under the NVRAM
// persistence model the text and initialized data segments were loaded
// through the durable tier at cold boot, so they survive the crash, and
// reloading them would overwrite exactly the recovery state (lock words,
// journals, applied tables) the program's boot-time recovery path needs
// to read. The same binary therefore serves as first boot and every
// reboot; only the spawn differs by never reloading.
//
// Boot replaces the hand-rolled load-once/spawn-again pattern the
// persistence sweeps grew: the supervisor (internal/resilience), the
// benches, rasvm and the model checker all boot and reboot through it.
func Boot(cfg Config, prog *asm.Program, entry string, stackTop uint32, cold bool) *Kernel {
	k := New(cfg)
	if cold {
		k.Load(prog)
	}
	k.Spawn(prog.MustSymbol(entry), stackTop)
	return k
}

// PersistConfig is the configuration the persistent guests boot under
// across whole-machine crashes, over mem, the machine's persistent
// memory: designated sequences checked at resume, a 300-cycle quantum,
// and a watchdog that extends a livelocked sequence's slice.
func PersistConfig(mem *vmach.Memory, faults chaos.Injector, maxCycles uint64) Config {
	return Config{
		Strategy:  &Designated{},
		CheckAt:   CheckAtResume,
		Quantum:   300,
		Memory:    mem,
		Faults:    faults,
		MaxCycles: maxCycles,
		Watchdog:  chaos.Watchdog{Policy: chaos.WatchdogExtend},
	}
}

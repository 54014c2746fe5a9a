// Package arch defines per-processor cost profiles for the simulated
// uniprocessor.
//
// A Profile assigns cycle costs to instruction classes, to the
// memory-interlocked synchronization instructions, and to kernel paths
// (trap entry/exit, thread suspension, the RAS PC checks). The eight
// profiles mirror the processors of the paper's Table 4; their parameters
// are calibrated from the published measurements so that the *relative*
// costs — which is what Table 4 is about — are preserved:
//
//   - CVAX, 486, 88000 and PA-RISC have interlocked instructions that are
//     expensive relative to their plain loads/stores (bus locking, cache
//     bypass), so restartable sequences win there;
//   - 68030 and 386 have cheap-ish interlocked accesses but slow calls, so
//     only the inlined designated sequence competes;
//   - the i860 has its hardware lock bit (modelled by the lockb
//     instruction).
//
// The R3000 profile models the DECstation 5000/200 used in Tables 1-3; it
// has no interlocked instructions at all, and stores cost two cycles
// (write-through cache with a shallow write buffer, §5.1).
package arch

import (
	"fmt"

	"repro/internal/isa"
)

// Profile is a processor cost model. All costs are in CPU cycles.
type Profile struct {
	Name     string
	ClockMHz float64 // processor clock; converts cycles to microseconds

	// ClassCycles is the cost of one instruction of each isa.Class, so
	// pricing an instruction is one lookup. The ClassTrap entry equals
	// ClassALU: the trap *instruction* costs one ALU slot, and the kernel
	// charges the trap entry/exit paths separately. The ClassInterlocked
	// entry prices one memory-interlocked read-modify-write (tas/xchg/faa),
	// excluding the ordinary store that releases the lock afterwards; it
	// is zero when HasInterlocked is false, as ClassLockB is without
	// HasLockBit. Interlocked instructions on a profile without hardware
	// support are reported as illegal by the machine, not priced here.
	// Entries are int32 so that a Profile, which every checker schedule
	// allocates, stays in the 160-byte malloc size class.
	ClassCycles    [isa.NumClasses]int32
	HasInterlocked bool

	// HasLLSC enables the ll/sc load-linked/store-conditional pair
	// (R4000-style). The instructions themselves are priced as ordinary
	// loads and stores; the cost of cross-CPU arbitration emerges from the
	// SMP coherence model, not from the opcode.
	HasLLSC bool

	// HasLockBit enables the i860-style lockb instruction: a hardware
	// restartable sequence begun by lockb and ended by the next store, 32
	// cycles, or an exception (§7).
	HasLockBit     bool
	LockBMaxCycles int // hardware window before the lock bit auto-clears

	// Kernel path costs.
	TrapEnterCycles int // user->kernel transition (syscall/fault)
	TrapExitCycles  int // kernel->user transition
	EmulTASCycles   int // kernel work for an emulated Test-And-Set
	SuspendCycles   int // base thread-suspension path (scheduler, state save)
	ResumeCycles    int // thread-resume path

	// RAS check costs, added to suspension handling per §3.1/§3.2.
	PCCheckRegistrationCycles int // compare PC against one registered range
	PCCheckDesignatedCycles   int // two-stage opcode hash + landmark probe

	// Write-buffer model for write-through caches (§5.1: "a scheme
	// requiring several writes will not work well on a memory system with
	// a write-through cache and a shallow write-buffer"). When
	// WriteBufferDepth > 0, each store enqueues an entry that retires
	// after WriteBufferDrainCycles; a store issued against a full buffer
	// stalls the processor until a slot frees. Zero depth disables the
	// model (stores cost their ClassStore cycles flat).
	WriteBufferDepth       int
	WriteBufferDrainCycles int

	// Persistence (NVRAM) cost, for machines whose memory carries a
	// volatile line buffer in front of non-volatile storage. flush issues
	// a line write-back (clwb-style, its ClassFlush cycles); fence is the
	// persist barrier (its ClassFence cycles) and additionally pays
	// PersistDrainCycles per line it actually makes durable — NVM writes
	// are slow, and a fence cannot retire until every outstanding
	// write-back has. On memories without a persistence domain both
	// instructions are hints and cost only their class cycles.
	PersistDrainCycles int
}

// WithWriteBuffer returns a copy of p using the given write-buffer model.
func (p *Profile) WithWriteBuffer(depth, drainCycles int) *Profile {
	q := *p
	q.WriteBufferDepth = depth
	q.WriteBufferDrainCycles = drainCycles
	return &q
}

// Cycles returns the cost of one instruction of class c.
func (p *Profile) Cycles(c isa.Class) int { return int(p.ClassCycles[c]) }

// Micros converts a cycle count to microseconds on this profile.
func (p *Profile) Micros(cycles uint64) float64 {
	return float64(cycles) / p.ClockMHz
}

// String implements fmt.Stringer.
func (p *Profile) String() string {
	return fmt.Sprintf("%s (%.1f MHz)", p.Name, p.ClockMHz)
}

// classCycles returns a class cost table with the given ALU, load, store,
// branch, jump and interlocked costs; kernelDefaults fills in the rest.
func classCycles(alu, load, store, branch, jump, interlocked int32) [isa.NumClasses]int32 {
	var c [isa.NumClasses]int32
	c[isa.ClassALU], c[isa.ClassLoad], c[isa.ClassStore] = alu, load, store
	c[isa.ClassBranch], c[isa.ClassJump], c[isa.ClassInterlocked] = branch, jump, interlocked
	return c
}

// kernelDefaults fills in kernel path costs that are common across profiles
// unless a profile overrides them, and prices the trap instruction as an
// ALU instruction.
func kernelDefaults(p Profile) Profile {
	p.ClassCycles[isa.ClassTrap] = p.ClassCycles[isa.ClassALU]
	if p.TrapEnterCycles == 0 {
		p.TrapEnterCycles = 30
	}
	if p.TrapExitCycles == 0 {
		p.TrapExitCycles = 25
	}
	if p.EmulTASCycles == 0 {
		// "about 100 instructions" on the R3000 (§2.3); scale-free default.
		p.EmulTASCycles = 45
	}
	if p.SuspendCycles == 0 {
		// "already several hundred cycles long" (§3.1).
		p.SuspendCycles = 400
	}
	if p.ResumeCycles == 0 {
		p.ResumeCycles = 200
	}
	if p.PCCheckRegistrationCycles == 0 {
		// "a few tens of cycles" (§3.1).
		p.PCCheckRegistrationCycles = 20
	}
	if p.PCCheckDesignatedCycles == 0 {
		// "about 2 usecs on a MIPS R3000" == ~50 cycles at 25 MHz (§3.2).
		p.PCCheckDesignatedCycles = 50
	}
	if p.LockBMaxCycles == 0 {
		p.LockBMaxCycles = 32
	}
	if p.ClassCycles[isa.ClassFlush] == 0 {
		// A clwb-style hint: roughly a store's issue cost.
		p.ClassCycles[isa.ClassFlush] = 4
	}
	if p.ClassCycles[isa.ClassFence] == 0 {
		p.ClassCycles[isa.ClassFence] = 10
	}
	if p.PersistDrainCycles == 0 {
		// NVM write-back latency per line, paid at the fence.
		p.PersistDrainCycles = 60
	}
	return p
}

// R3000 models the 25 MHz MIPS R3000 in the DECstation 5000/200: no
// hardware atomic operations; single-cycle ALU/load/branch; two-cycle
// stores (write-through cache).
func R3000() *Profile {
	p := kernelDefaults(Profile{
		Name: "MIPS R3000", ClockMHz: 25,
		ClassCycles: classCycles(1, 1, 2, 1, 1, 0), HasInterlocked: false,
	})
	return &p
}

// SMP models the multiprocessor variant of the R3000 board used by the
// smp package: the same clock and per-class costs as the DECstation
// profile, plus the two ways a multiprocessor can arbitrate — bus-locked
// interlocked instructions (expensive: the bus stalls every CPU, as on
// the CVAX/PA parts of Table 4) and ll/sc (cheap per instruction; the
// expense of contention comes from the coherence cost model instead).
// Keeping the base costs identical to R3000() is what makes the 1-CPU
// hybrid-lock numbers directly comparable to Table 1.
func SMP() *Profile {
	p := kernelDefaults(Profile{
		Name: "MIPS R3000 (SMP)", ClockMHz: 25,
		ClassCycles: classCycles(1, 1, 2, 1, 1, 30), HasInterlocked: true,
		HasLLSC: true,
	})
	return &p
}

// CVAX models the DEC CVAX microprocessor.
func CVAX() *Profile {
	p := kernelDefaults(Profile{
		Name: "DEC CVAX", ClockMHz: 11.1,
		ClassCycles: classCycles(2, 4, 4, 3, 3, 27), HasInterlocked: true,
	})
	return &p
}

// M68030 models the Motorola 68030.
func M68030() *Profile {
	p := kernelDefaults(Profile{
		Name: "Motorola 68030", ClockMHz: 25,
		ClassCycles: classCycles(3, 6, 6, 5, 10, 22), HasInterlocked: true,
	})
	return &p
}

// I386 models the Intel 386.
func I386() *Profile {
	p := kernelDefaults(Profile{
		Name: "Intel 386", ClockMHz: 25,
		ClassCycles: classCycles(2, 4, 4, 4, 9, 21), HasInterlocked: true,
	})
	return &p
}

// I486 models the Intel 486.
func I486() *Profile {
	p := kernelDefaults(Profile{
		Name: "Intel 486", ClockMHz: 33,
		ClassCycles: classCycles(1, 2, 2, 2, 5, 21), HasInterlocked: true,
	})
	return &p
}

// I860 models the Intel i860, including its hardware lock bit.
func I860() *Profile {
	p := kernelDefaults(Profile{
		Name: "Intel 860", ClockMHz: 40,
		ClassCycles: classCycles(1, 2, 1, 2, 4, 11), HasInterlocked: true,
		HasLockBit: true,
	})
	// The lock instruction disables interrupts and locks the bus, so it
	// is far from free; the paper's Table 4 prices the i860's hardware
	// path at 0.3us — barely ahead of plain software.
	p.ClassCycles[isa.ClassLockB] = 7
	return &p
}

// M88000 models the Motorola 88000, whose xmem bypasses the on-chip cache.
func M88000() *Profile {
	p := kernelDefaults(Profile{
		Name: "Motorola 88000", ClockMHz: 25,
		ClassCycles: classCycles(1, 1, 1, 1, 1, 21), HasInterlocked: true,
	})
	return &p
}

// SPARC models the Sun SPARC.
func SPARC() *Profile {
	p := kernelDefaults(Profile{
		Name: "Sun SPARC", ClockMHz: 25,
		ClassCycles: classCycles(1, 2, 5, 2, 4, 15), HasInterlocked: true,
	})
	return &p
}

// PA models the HP 9000 Series 700 (PA-RISC), whose ldcws bypasses the
// cache, making the interlocked path dramatically slower than plain code.
func PA() *Profile {
	p := kernelDefaults(Profile{
		Name: "HP 9000/700", ClockMHz: 66,
		ClassCycles: classCycles(1, 1, 1, 1, 2, 61), HasInterlocked: true,
	})
	return &p
}

// Table4 returns the eight processors of the paper's Table 4, in paper
// order.
func Table4() []*Profile {
	return []*Profile{CVAX(), M68030(), I386(), I486(), I860(), M88000(), SPARC(), PA()}
}

// ByName returns the profile with the given name (case-sensitive match on
// either the full name or a short alias), or nil.
func ByName(name string) *Profile {
	switch name {
	case "r3000", "MIPS R3000", "decstation":
		return R3000()
	case "cvax", "DEC CVAX":
		return CVAX()
	case "68030", "m68030", "Motorola 68030":
		return M68030()
	case "386", "i386", "Intel 386":
		return I386()
	case "486", "i486", "Intel 486":
		return I486()
	case "860", "i860", "Intel 860":
		return I860()
	case "88000", "m88000", "Motorola 88000":
		return M88000()
	case "sparc", "Sun SPARC":
		return SPARC()
	case "pa", "hp700", "HP 9000/700":
		return PA()
	case "smp", "r3000smp", "MIPS R3000 (SMP)":
		return SMP()
	}
	return nil
}

// Names lists the short aliases accepted by ByName, in a stable order.
func Names() []string {
	return []string{"r3000", "cvax", "68030", "386", "486", "860", "88000", "sparc", "pa", "smp"}
}

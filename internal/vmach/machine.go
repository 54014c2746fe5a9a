package vmach

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/isa"
)

// Context is the user-visible CPU state of one thread: the register file,
// the program counter, and the i860-style lock bit.
type Context struct {
	Regs [isa.NumRegs]isa.Word
	PC   uint32

	// i860-style hardware restartable sequence state (§7): LockActive is
	// the PSW bit; LockPC is where the kernel must back the thread up to
	// if it is suspended while the bit is set; LockBudget is the remaining
	// cycle window before the hardware clears the bit on its own.
	LockActive bool
	LockPC     uint32
	LockBudget int
}

// EventKind classifies why Step returned control to the kernel.
type EventKind int

const (
	EventNone EventKind = iota
	EventSyscall
	EventBreak
	EventFault
)

// Event is the outcome of executing one instruction.
type Event struct {
	Kind  EventKind
	Fault *Fault // when Kind == EventFault
	// SyscallPC is the address of the syscall instruction; the kernel
	// resumes the thread at SyscallPC+4 after servicing it.
	SyscallPC uint32
}

// Stats accumulates dynamic execution counts.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Interlocked  uint64
	LockBStarts  uint64
	LockBExpired uint64
	// Write-buffer stalls (profiles with WriteBufferDepth > 0).
	WriteStalls      uint64
	WriteStallCycles uint64
	// SMP coherence accounting (zero on a plain uniprocessor): remote
	// memory references charged to this CPU and the extra cycles the
	// coherence cost model added to its clock.
	RMRs            uint64
	CoherenceCycles uint64
	// Persistence accounting: flush/fence instructions retired, lines made
	// durable by fences, and the NVM write-back cycles fences paid.
	Flushes        uint64
	Fences         uint64
	LinesPersisted uint64
	PersistCycles  uint64
}

// CoherenceHook prices one committed data-memory access when the machine
// is a CPU of an SMP complex (internal/vmach/smp). It returns the extra
// cycles the access costs beyond the instruction's class cost, and whether
// the access counted as a remote memory reference. A nil hook means
// uniprocessor semantics: every access is local and free.
type CoherenceHook interface {
	Access(addr uint32, write bool) (extra uint64, rmr bool)
}

// Machine executes instructions against a Context. On its own it is a pure
// uniprocessor: no concurrency is involved; the kernel multiplexes thread
// contexts onto this single interpreter. An SMP complex steps several
// Machines sharing one Memory, each Machine playing the role of one CPU
// with its own clock, stats, write buffer, and ll/sc reservation.
type Machine struct {
	Mem     *Memory
	Profile *arch.Profile
	Stats   Stats

	// Coherence, when non-nil, observes and prices every committed data
	// access (loads, stores, interlocked ops, ll/sc).
	Coherence CoherenceHook

	// wb holds the retire times (in cycles) of write-buffer entries still
	// draining to memory, oldest first.
	wb []uint64

	// ll/sc reservation: per-CPU (not per-thread) state, as on the R4000.
	// The kernel clears it on every dispatch; the SMP coherence layer
	// clears it when a remote CPU writes the reserved line.
	resValid bool
	resAddr  uint32
}

// New creates a machine with fresh memory.
func New(p *arch.Profile) *Machine {
	return NewWithMemory(p, nil)
}

// NewWithMemory creates a machine backed by an existing memory, so several
// machines (the CPUs of an SMP complex) can share one physical memory. A
// nil mem allocates a fresh one.
func NewWithMemory(p *arch.Profile, mem *Memory) *Machine {
	if mem == nil {
		mem = NewMemory()
	}
	return &Machine{Mem: mem, Profile: p}
}

// ClearReservation invalidates the machine's ll/sc reservation (context
// switch, trap return, or a remote write to the reserved line).
func (m *Machine) ClearReservation() { m.resValid = false }

// Reservation returns the ll/sc reservation address and whether one is
// armed.
func (m *Machine) Reservation() (uint32, bool) { return m.resAddr, m.resValid }

// coherent charges the coherence cost model for one committed data
// access. It is the inlined guard: a uniprocessor, with no hook, makes
// no call.
func (m *Machine) coherent(addr uint32, write bool) {
	if m.Coherence != nil {
		m.chargeCoherence(addr, write)
	}
}

// chargeCoherence prices one committed data access on an SMP complex.
func (m *Machine) chargeCoherence(addr uint32, write bool) {
	extra, rmr := m.Coherence.Access(addr, write)
	m.Stats.Cycles += extra
	m.Stats.CoherenceCycles += extra
	if rmr {
		m.Stats.RMRs++
	}
}

// charge adds the cycle cost of one instruction of class c, honouring the
// context's hardware lock-bit budget.
func (m *Machine) charge(ctx *Context, c isa.Class) {
	cy := m.Profile.CyclesFor(c)
	m.Stats.Cycles += uint64(cy)
	if ctx.LockActive {
		ctx.LockBudget -= cy
		if ctx.LockBudget <= 0 {
			ctx.LockActive = false
			m.Stats.LockBExpired++
		}
	}
}

// Step executes one instruction. The returned Event is EventNone for
// ordinary instructions; syscalls, breaks and faults return control to the
// kernel with the PC *not* advanced past the triggering instruction
// (faults) or with SyscallPC recorded (syscalls). Step is Run(ctx, 0, 0).
func (m *Machine) Step(ctx *Context) Event {
	ev, _ := m.Run(ctx, 0, 0)
	return ev
}

// Run executes instructions until one needs the kernel: the one
// interpreter loop, of which Step is the single-instruction case. After an
// instruction that raises no event, Run goes on to the next only when
// quiet is still above the count of instructions it let pass, the lock
// bit is clear and the clock is below until; otherwise it returns that
// instruction's EventNone. It returns the event of the last instruction
// executed, as Step would have, and how many quiet instructions it let
// pass before it (at most quiet) — instructions the kernel would have let
// pass one by one.
func (m *Machine) Run(ctx *Context, quiet, until uint64) (Event, uint64) {
	reg := func(r int) isa.Word { return ctx.Regs[r] }
	set := func(r int, v isa.Word) {
		if r != isa.RegZero {
			ctx.Regs[r] = v
		}
	}
	for n := uint64(0); ; n++ {
		w, pre, f := m.Mem.fetch(ctx.PC)
		if f != nil {
			return Event{Kind: EventFault, Fault: f}, n
		}
		var inst isa.Inst
		var class isa.Class
		if pre != nil {
			inst, class = pre.Inst, pre.Class
		} else {
			inst = isa.Decode(w)
			class = isa.ClassOf(inst)
		}
		m.Stats.Instructions++
		next := ctx.PC + 4

		switch inst.Op {
		case isa.OpSpecial:
			switch inst.Funct {
			case isa.FnSLL:
				set(inst.Rd, reg(inst.Rt)<<uint(inst.Shamt))
			case isa.FnSRL:
				set(inst.Rd, reg(inst.Rt)>>uint(inst.Shamt))
			case isa.FnSRA:
				set(inst.Rd, isa.Word(int32(reg(inst.Rt))>>uint(inst.Shamt)))
			case isa.FnADD:
				set(inst.Rd, reg(inst.Rs)+reg(inst.Rt))
			case isa.FnSUB:
				set(inst.Rd, reg(inst.Rs)-reg(inst.Rt))
			case isa.FnAND:
				set(inst.Rd, reg(inst.Rs)&reg(inst.Rt))
			case isa.FnOR:
				set(inst.Rd, reg(inst.Rs)|reg(inst.Rt))
			case isa.FnXOR:
				set(inst.Rd, reg(inst.Rs)^reg(inst.Rt))
			case isa.FnNOR:
				set(inst.Rd, ^(reg(inst.Rs) | reg(inst.Rt)))
			case isa.FnSLT:
				if int32(reg(inst.Rs)) < int32(reg(inst.Rt)) {
					set(inst.Rd, 1)
				} else {
					set(inst.Rd, 0)
				}
			case isa.FnSLTU:
				if reg(inst.Rs) < reg(inst.Rt) {
					set(inst.Rd, 1)
				} else {
					set(inst.Rd, 0)
				}
			case isa.FnJR:
				next = reg(inst.Rs)
			case isa.FnJALR:
				set(inst.Rd, ctx.PC+4)
				next = reg(inst.Rs)
			case isa.FnSYSCALL:
				m.charge(ctx, class)
				ev := Event{Kind: EventSyscall, SyscallPC: ctx.PC}
				ctx.PC += 4
				return ev, n
			case isa.FnBREAK:
				m.charge(ctx, class)
				return Event{Kind: EventBreak}, n
			case isa.FnLANDMARK:
				// Non-destructive no-op; exists only to be recognized by the
				// kernel's designated-sequence check.
			default:
				return m.illegal(ctx), n
			}

		case isa.OpADDI:
			set(inst.Rt, reg(inst.Rs)+isa.Word(inst.Imm))
		case isa.OpSLTI:
			if int32(reg(inst.Rs)) < inst.Imm {
				set(inst.Rt, 1)
			} else {
				set(inst.Rt, 0)
			}
		case isa.OpSLTIU:
			if reg(inst.Rs) < isa.Word(inst.Imm) {
				set(inst.Rt, 1)
			} else {
				set(inst.Rt, 0)
			}
		case isa.OpANDI:
			set(inst.Rt, reg(inst.Rs)&inst.Uimm)
		case isa.OpORI:
			set(inst.Rt, reg(inst.Rs)|inst.Uimm)
		case isa.OpXORI:
			set(inst.Rt, reg(inst.Rs)^inst.Uimm)
		case isa.OpLUI:
			set(inst.Rt, inst.Uimm<<16)

		case isa.OpLW:
			addr := reg(inst.Rs) + isa.Word(inst.Imm)
			v, f := m.Mem.LoadWord(addr)
			if f != nil {
				return Event{Kind: EventFault, Fault: f}, n
			}
			set(inst.Rt, v)
			m.Stats.Loads++
			m.coherent(addr, false)

		case isa.OpSW:
			addr := reg(inst.Rs) + isa.Word(inst.Imm)
			if f := m.Mem.StoreWord(addr, reg(inst.Rt)); f != nil {
				return Event{Kind: EventFault, Fault: f}, n
			}
			m.Stats.Stores++
			m.coherent(addr, true)
			m.writeBuffer()
			// A store ends an i860 hardware restartable sequence.
			ctx.LockActive = false

		case isa.OpBEQ:
			if reg(inst.Rs) == reg(inst.Rt) {
				next = branchTarget(ctx.PC, inst.Imm)
			}
		case isa.OpBNE:
			if reg(inst.Rs) != reg(inst.Rt) {
				next = branchTarget(ctx.PC, inst.Imm)
			}
		case isa.OpBLEZ:
			if int32(reg(inst.Rs)) <= 0 {
				next = branchTarget(ctx.PC, inst.Imm)
			}
		case isa.OpBGTZ:
			if int32(reg(inst.Rs)) > 0 {
				next = branchTarget(ctx.PC, inst.Imm)
			}

		case isa.OpJ:
			next = inst.Targ << 2
		case isa.OpJAL:
			set(isa.RegRA, ctx.PC+4)
			next = inst.Targ << 2

		case isa.OpTAS, isa.OpXCHG, isa.OpFAA:
			if !m.Profile.HasInterlocked {
				return m.illegal(ctx), n
			}
			addr := reg(inst.Rs) + isa.Word(inst.Imm)
			old, f := m.Mem.LoadWord(addr)
			if f != nil {
				return Event{Kind: EventFault, Fault: f}, n
			}
			var nw isa.Word
			switch inst.Op {
			case isa.OpTAS:
				nw = 1
			case isa.OpXCHG:
				nw = reg(inst.Rt)
			case isa.OpFAA:
				nw = old + 1
			}
			if f := m.Mem.StoreWord(addr, nw); f != nil {
				return Event{Kind: EventFault, Fault: f}, n
			}
			set(inst.Rt, old)
			m.Stats.Interlocked++
			m.coherent(addr, true)

		case isa.OpLL:
			if !m.Profile.HasLLSC {
				return m.illegal(ctx), n
			}
			addr := reg(inst.Rs) + isa.Word(inst.Imm)
			v, f := m.Mem.LoadWord(addr)
			if f != nil {
				return Event{Kind: EventFault, Fault: f}, n
			}
			set(inst.Rt, v)
			m.Stats.Loads++
			m.resValid, m.resAddr = true, addr
			m.coherent(addr, false)

		case isa.OpSC:
			if !m.Profile.HasLLSC {
				return m.illegal(ctx), n
			}
			addr := reg(inst.Rs) + isa.Word(inst.Imm)
			if m.resValid && m.resAddr == addr {
				if f := m.Mem.StoreWord(addr, reg(inst.Rt)); f != nil {
					return Event{Kind: EventFault, Fault: f}, n
				}
				m.Stats.Stores++
				set(inst.Rt, 1)
				m.coherent(addr, true)
				m.writeBuffer()
				// Like sw, a successful sc ends an i860 sequence.
				ctx.LockActive = false
			} else {
				set(inst.Rt, 0)
			}
			m.resValid = false

		case isa.OpFLUSH:
			addr := reg(inst.Rs) + isa.Word(inst.Imm)
			if _, f := m.Mem.FlushLine(addr); f != nil {
				return Event{Kind: EventFault, Fault: f}, n
			}
			m.Stats.Flushes++

		case isa.OpFENCE:
			// The fence cannot retire until every initiated write-back has
			// reached NVM; it pays the per-line drain latency on the spot.
			n := uint64(m.Mem.Fence())
			m.Stats.Fences++
			m.Stats.LinesPersisted += n
			drain := n * uint64(m.Profile.PersistDrainCycles)
			m.Stats.Cycles += drain
			m.Stats.PersistCycles += drain

		case isa.OpLOCKB:
			if !m.Profile.HasLockBit {
				return m.illegal(ctx), n
			}
			ctx.LockActive = true
			ctx.LockPC = ctx.PC
			ctx.LockBudget = m.Profile.LockBMaxCycles
			m.Stats.LockBStarts++

		default:
			return m.illegal(ctx), n
		}

		m.charge(ctx, class)
		ctx.PC = next
		if n >= quiet || ctx.LockActive || m.Stats.Cycles >= until {
			return Event{Kind: EventNone}, n
		}
	}
}

// writeBuffer models a write-through cache's store buffer (§5.1) for one
// store. It is the inlined guard: a profile without a buffer (depth zero)
// makes no call.
func (m *Machine) writeBuffer() {
	if m.Profile.WriteBufferDepth > 0 {
		m.bufferStore()
	}
}

// bufferStore enqueues a store's write-buffer entry, which retires
// WriteBufferDrainCycles later; a store against a full buffer stalls the
// processor until the oldest entry drains.
func (m *Machine) bufferStore() {
	p := m.Profile
	now := m.Stats.Cycles
	for len(m.wb) > 0 && m.wb[0] <= now {
		m.wb = m.wb[1:]
	}
	if len(m.wb) >= p.WriteBufferDepth {
		stall := m.wb[0] - now
		m.Stats.Cycles += stall
		m.Stats.WriteStalls++
		m.Stats.WriteStallCycles += stall
		now = m.Stats.Cycles
		m.wb = m.wb[1:]
	}
	last := now
	if len(m.wb) > 0 && m.wb[len(m.wb)-1] > last {
		last = m.wb[len(m.wb)-1]
	}
	m.wb = append(m.wb, last+uint64(p.WriteBufferDrainCycles))
}

func (m *Machine) illegal(ctx *Context) Event {
	return Event{Kind: EventFault, Fault: &Fault{FaultIllegal, ctx.PC}}
}

func branchTarget(pc uint32, off int32) uint32 {
	return uint32(int64(pc) + 4 + int64(off)*4)
}

// Micros converts the machine's accumulated cycle count to microseconds.
func (m *Machine) Micros() float64 { return m.Profile.Micros(m.Stats.Cycles) }

// String summarizes the machine state for diagnostics.
func (m *Machine) String() string {
	return fmt.Sprintf("machine[%s]: %d instrs, %d cycles",
		m.Profile.Name, m.Stats.Instructions, m.Stats.Cycles)
}

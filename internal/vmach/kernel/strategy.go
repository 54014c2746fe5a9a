package kernel

import (
	"cmp"
	"slices"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/vmach"
)

// CheckResult is the outcome of a recovery-strategy check on a suspended
// thread.
type CheckResult struct {
	Restarted bool         // the PC was rolled back to a sequence start
	Cost      int          // cycles charged to the kernel path
	Fault     *vmach.Fault // the check itself touched a non-present page
}

// Strategy decides whether a suspended thread was inside a restartable
// atomic sequence and rolls its PC back if so.
type Strategy interface {
	Name() string
	Check(k *Kernel, t *Thread) CheckResult
	// CanReject reports whether a non-restart outcome is a meaningful
	// "rejected candidate" statistic (true only for instruction-stream
	// inspection).
	CanReject() bool
}

// NoRecovery performs no checks: atomic sequences are *not* safe under this
// kernel; it exists as the baseline for kernels predating RAS support and
// to demonstrate the failure mode in tests.
type NoRecovery struct{}

func (NoRecovery) Name() string                       { return "none" }
func (NoRecovery) Check(*Kernel, *Thread) CheckResult { return CheckResult{} }
func (NoRecovery) CanReject() bool                    { return false }

// Registration is the Mach 3.0 strategy (§3.1): the address space registers
// one [start, start+len) PC range via SysRasRegister; a thread suspended
// with its PC inside the range resumes at start.
type Registration struct{}

func (*Registration) Name() string    { return "registration" }
func (*Registration) CanReject() bool { return false }

func (*Registration) Check(k *Kernel, t *Thread) CheckResult {
	cost := k.Profile.PCCheckRegistrationCycles
	i, ok := k.rasEntry(t.AS)
	if !ok {
		return CheckResult{Cost: cost}
	}
	r, pc := k.ras[i], t.Ctx.PC
	if pc > r.Start && pc < r.Start+r.Length {
		t.Ctx.PC = r.Start
		return CheckResult{Restarted: true, Cost: cost}
	}
	return CheckResult{Cost: cost}
}

// MultiRegistration generalizes Mach's scheme to a *table* of registered
// sequences — the design the paper declined: "An address space may
// register only one restartable atomic sequence at a time. This
// restriction simplifies the kernel's task" (§3.1). The check is a linear
// scan, so its cost grows with the table size; the ablation in
// internal/bench quantifies the paper's implicit trade-off against the
// O(1) single-range and designated checks.
type MultiRegistration struct {
	ranges []rasRange
}

type rasRange struct{ start, length uint32 }

// NewMultiRegistration returns an empty registration table.
func NewMultiRegistration() *MultiRegistration { return &MultiRegistration{} }

// MultiRegistrationStrategy adapts NewMultiRegistration to the
// per-CPU strategy-factory shape smp.Config.NewStrategy expects — the
// configuration every multi-sequence guest program (percpu, server)
// needs on an SMP machine.
func MultiRegistrationStrategy() Strategy { return NewMultiRegistration() }

// AddRange registers another restartable sequence [start, start+length).
func (s *MultiRegistration) AddRange(start, length uint32) {
	s.ranges = append(s.ranges, rasRange{start, length})
}

// Name implements Strategy.
func (s *MultiRegistration) Name() string { return "multi-registration" }

// CanReject implements Strategy.
func (s *MultiRegistration) CanReject() bool { return false }

// CheckCost returns the cycles one suspension check costs with the current
// table size on the given profile: the base compare plus a per-entry scan.
func (s *MultiRegistration) CheckCost(p *arch.Profile) int {
	extra := 0
	if n := len(s.ranges); n > 1 {
		extra = 4 * (n - 1)
	}
	return p.PCCheckRegistrationCycles + extra
}

// Check implements Strategy with a linear scan over the table.
func (s *MultiRegistration) Check(k *Kernel, t *Thread) CheckResult {
	cost := s.CheckCost(k.Profile)
	pc := t.Ctx.PC
	for _, r := range s.ranges {
		if pc > r.start && pc < r.start+r.length {
			t.Ctx.PC = r.start
			return CheckResult{Restarted: true, Cost: cost}
		}
	}
	return CheckResult{Cost: cost}
}

// Designated is the Taos strategy (§3.2): restartable sequences may appear
// anywhere (enabling inlining); the kernel recognizes an interrupted one by
// inspecting the suspended thread's instruction stream with a two-stage
// check — a fast opcode-hash test, then a probe for the landmark no-op at
// the position the opcode implies.
//
// The canonical sequence shape is five words:
//
//	0: lw   vN, off(rB)        ; read the synchronization word
//	1: lui/ori tN, <locked>    ; materialize the locked value
//	2: bne  vN, rX, slow       ; uncommon case exits the sequence
//	3: landmark                ; never emitted elsewhere by the compiler
//	4: sw   tN, off(rB)        ; commit — the sequence's only store
//
// Each eligible opcode appears at exactly one index, so the opcode of the
// suspended instruction determines both where the landmark must be and how
// far to roll back.
type Designated struct{}

func (*Designated) Name() string    { return "designated" }
func (*Designated) CanReject() bool { return true }

// seqEntry gives, for an opcode eligible at position i of the canonical
// sequence, the word offset from the suspended instruction to the landmark
// and the rollback distance to the sequence start.
type seqEntry struct {
	landmarkOff int32
	startOff    int32
}

// designatedTable is the two-stage hash table, keyed by primary opcode
// (with SPECIAL instructions keyed by funct in the second bank). This is
// the table the paper describes as "indexed by opcode".
var designatedTable = map[uint32]seqEntry{
	key(isa.OpLW, 0):                   {landmarkOff: 3, startOff: 0},
	key(isa.OpLUI, 0):                  {landmarkOff: 2, startOff: 1},
	key(isa.OpORI, 0):                  {landmarkOff: 2, startOff: 1},
	key(isa.OpBNE, 0):                  {landmarkOff: 1, startOff: 2},
	key(isa.OpSpecial, isa.FnLANDMARK): {landmarkOff: 0, startOff: 3},
	key(isa.OpSW, 0):                   {landmarkOff: -1, startOff: 4},
}

func key(op, funct uint32) uint32 {
	if op == isa.OpSpecial {
		return 1<<12 | funct
	}
	return op << 6
}

func (*Designated) Check(k *Kernel, t *Thread) CheckResult {
	p := k.Profile
	rejectCost := p.PCCheckDesignatedCycles / 5
	if rejectCost < 2 {
		rejectCost = 2
	}
	pc := t.Ctx.PC

	// Stage 1: fetch the suspended instruction and hash its opcode.
	// Reading user memory here can page-fault (§4.1).
	w, f := k.M.Mem.LoadWord(pc)
	if f != nil {
		return CheckResult{Cost: rejectCost, Fault: f}
	}
	inst := isa.Decode(w)
	entry, ok := designatedTable[key(inst.Op, inst.Funct)]
	if !ok {
		return CheckResult{Cost: rejectCost}
	}

	// Stage 2: the landmark must be exactly where this opcode implies.
	lmAddr := uint32(int64(pc) + int64(entry.landmarkOff)*4)
	lw, f := k.M.Mem.LoadWord(lmAddr)
	if f != nil {
		return CheckResult{Cost: p.PCCheckDesignatedCycles, Fault: f}
	}
	if !isa.Decode(lw).IsLandmark() {
		return CheckResult{Cost: p.PCCheckDesignatedCycles}
	}
	if entry.startOff == 0 {
		// Suspended at the first instruction: nothing executed yet, the
		// sequence is intact. Not a restart.
		return CheckResult{Cost: p.PCCheckDesignatedCycles}
	}
	t.Ctx.PC = uint32(int64(pc) - int64(entry.startOff)*4)
	return CheckResult{Restarted: true, Cost: p.PCCheckDesignatedCycles}
}

// UserLevel is §4.1's alternative: the kernel neither detects nor corrects.
// On resume from an involuntary suspension it saves the interrupted PC on
// the thread's user stack and vectors the thread to a registered user-level
// trampoline, which performs its own check and branches either back to the
// sequence start or to the interrupted instruction. Restart decisions (and
// their costs) therefore happen in guest code; the kernel only pays for the
// redirection.
type UserLevel struct{}

func (*UserLevel) Name() string    { return "userlevel" }
func (*UserLevel) CanReject() bool { return false }

func (*UserLevel) Check(k *Kernel, t *Thread) CheckResult {
	const vectorCost = 10
	if !k.hasUserHandler {
		return CheckResult{Cost: vectorCost}
	}
	sp := t.Ctx.Regs[isa.RegSP] - 4
	if f := k.M.Mem.StoreWord(sp, t.Ctx.PC); f != nil {
		return CheckResult{Cost: vectorCost, Fault: f}
	}
	t.Ctx.Regs[isa.RegSP] = sp
	t.Ctx.PC = k.userHandler
	return CheckResult{Cost: vectorCost}
}

// rasEntry returns where address space as's registration is, or belongs,
// in k.ras, and whether it has one.
func (k *Kernel) rasEntry(as int32) (int, bool) {
	return slices.BinarySearchFunc(k.ras, as, func(r RasImage, as int32) int { return cmp.Compare(r.AS, as) })
}

// setRas registers [start, start+length) for address space as, replacing
// its previous registration.
func (k *Kernel) setRas(as int32, start, length uint32) {
	i, ok := k.rasEntry(as)
	if !ok {
		k.ras = slices.Insert(k.ras, i, RasImage{AS: as})
	}
	k.ras[i].Start, k.ras[i].Length = start, length
}

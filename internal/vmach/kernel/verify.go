package kernel

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Registration-time restartability verification.
//
// The paper's protocol makes the kernel an accomplice to whatever the
// thread package registers: on suspension inside the range the PC is
// rolled back to its start, unconditionally. That is only sound for
// sequences with the shape §3 demands — idempotent up to a single
// committing store that is the last instruction of the range. A malformed
// registration (two stores, a loop inside the range, a body longer than a
// quantum can retire) turns the recovery machinery itself into a
// correctness or liveness hazard, so the kernel now vets the range when
// SysRasRegister presents it, the way it would vet any other
// capability grant, and refuses with a typed error.

// MaxRasWords bounds a verified sequence's body. The paper's sequences
// are 3–5 instructions; a quantum must fit the whole body plus restart
// overhead or the sequence livelocks (§3.1), so anything long is refused
// outright rather than trusted to luck.
const MaxRasWords = 16

// Typed verification failures, one per malformation class. All match
// ErrRasRejected with errors.Is.
var (
	// ErrRasRejected is the class of every verification failure.
	ErrRasRejected = errors.New("kernel: restartable sequence rejected")
	// ErrRasBadRange: empty, misaligned, or otherwise unusable range, or
	// a trap instruction inside the body (a syscall can never lie inside
	// an atomic sequence).
	ErrRasBadRange = fmt.Errorf("%w: bad range", ErrRasRejected)
	// ErrRasOverlength: body longer than MaxRasWords.
	ErrRasOverlength = fmt.Errorf("%w: overlength body", ErrRasRejected)
	// ErrRasMultipleStores: more than one committing store in the body.
	ErrRasMultipleStores = fmt.Errorf("%w: multiple committing stores", ErrRasRejected)
	// ErrRasNoCommit: no committing store, or the store is not the final
	// instruction of the range.
	ErrRasNoCommit = fmt.Errorf("%w: no final committing store", ErrRasRejected)
	// ErrRasBackwardBranch: a branch or jump whose target lies inside the
	// range at or before the branch itself (a loop the rollback would
	// re-enter), or an indirect jump whose target cannot be verified.
	ErrRasBackwardBranch = fmt.Errorf("%w: backward branch inside range", ErrRasRejected)
)

// isCommittingStore reports whether the instruction writes memory — the
// store whose retirement commits the sequence. Interlocked read-modify-
// -writes count: they store, and have no business inside a RAS anyway.
func isCommittingStore(i isa.Inst) bool {
	switch i.Op {
	case isa.OpSW, isa.OpSC, isa.OpTAS, isa.OpXCHG, isa.OpFAA:
		return true
	}
	return false
}

// VerifySequence statically checks that [start, start+length) holds a
// well-formed restartable atomic sequence as loaded in memory right now:
// word-aligned and non-empty, at most MaxRasWords long, free of traps and
// of branches that would loop inside the range, with exactly one
// committing store sitting in the final slot. It returns nil or one of
// the ErrRas* sentinels (wrapped with position detail).
func (k *Kernel) VerifySequence(start, length uint32) error {
	if length == 0 || start%4 != 0 || length%4 != 0 {
		return fmt.Errorf("%w: [%#x, +%d) not a word-aligned non-empty range", ErrRasBadRange, start, length)
	}
	words := length / 4
	if words > MaxRasWords {
		return fmt.Errorf("%w: %d words, max %d", ErrRasOverlength, words, MaxRasWords)
	}
	end := start + length
	var stores []uint32
	for pc := start; pc < end; pc += 4 {
		inst := isa.Decode(k.M.Mem.Peek(pc))
		switch {
		case isCommittingStore(inst):
			stores = append(stores, pc)
		case inst.Op == isa.OpSpecial && (inst.Funct == isa.FnSYSCALL || inst.Funct == isa.FnBREAK):
			return fmt.Errorf("%w: trap at %#x inside the sequence", ErrRasBadRange, pc)
		case inst.Op == isa.OpSpecial && (inst.Funct == isa.FnJR || inst.Funct == isa.FnJALR):
			// An indirect jump's target is a register value; the verifier
			// cannot prove it leaves the range, so it refuses.
			return fmt.Errorf("%w: unverifiable indirect jump at %#x", ErrRasBackwardBranch, pc)
		case inst.Op == isa.OpBEQ || inst.Op == isa.OpBNE || inst.Op == isa.OpBLEZ || inst.Op == isa.OpBGTZ:
			target := pc + 4 + uint32(inst.Imm)*4
			if target >= start && target < end && target <= pc {
				return fmt.Errorf("%w: branch at %#x targets %#x", ErrRasBackwardBranch, pc, target)
			}
		case inst.Op == isa.OpJ || inst.Op == isa.OpJAL:
			target := inst.Targ << 2
			if target >= start && target < end && target <= pc {
				return fmt.Errorf("%w: jump at %#x targets %#x", ErrRasBackwardBranch, pc, target)
			}
		}
	}
	switch {
	case len(stores) == 0:
		return fmt.Errorf("%w: no store in [%#x, +%d)", ErrRasNoCommit, start, length)
	case len(stores) > 1:
		return fmt.Errorf("%w: stores at %#x and %#x", ErrRasMultipleStores, stores[0], stores[1])
	case stores[0]+4 != end:
		return fmt.Errorf("%w: store at %#x is not the final instruction", ErrRasNoCommit, stores[0])
	}
	return nil
}

// RegisterSequence verifies [start, start+length) and, when it passes,
// records it with the kernel's recovery strategy on behalf of address
// space as: the single per-space range for Registration, an added range
// for MultiRegistration. On any other strategy — or any verification
// failure — nothing is recorded and the error says why, so the guest's
// thread package can fall back to a conventional mechanism (§3.1).
func (k *Kernel) RegisterSequence(as int, start, length uint32) error {
	if err := k.VerifySequence(start, length); err != nil {
		return err
	}
	switch s := k.Strategy.(type) {
	case *Registration:
		// One sequence per address space: re-registration replaces.
		k.setRas(int32(as), start, length)
	case *MultiRegistration:
		s.AddRange(start, length)
	default:
		return fmt.Errorf("kernel: strategy %s does not take registrations", k.Strategy.Name())
	}
	return nil
}

// takesRegistrations reports whether RegisterSequence can record a range
// with strategy s: whether a registration on it is worth vetting.
func takesRegistrations(s Strategy) bool {
	switch s.(type) {
	case *Registration, *MultiRegistration:
		return true
	}
	return false
}

package isa

// Constructors for decoded instructions. These are used by the assembler and
// by tests that build code sequences programmatically (e.g. the kernel's
// designated-sequence recognizer tests).

// R builds an R-format instruction.
func R(funct uint32, rd, rs, rt int) Inst {
	return Inst{Op: OpSpecial, Funct: funct, Rd: rd, Rs: rs, Rt: rt}
}

// Shift builds a shift-immediate instruction.
func Shift(funct uint32, rd, rt, shamt int) Inst {
	return Inst{Op: OpSpecial, Funct: funct, Rd: rd, Rt: rt, Shamt: shamt}
}

// I builds an I-format instruction with a sign-extended immediate.
func I(op uint32, rt, rs int, imm int32) Inst {
	return Inst{Op: op, Rt: rt, Rs: rs, Imm: imm, Uimm: uint32(imm) & 0xFFFF}
}

// U builds an I-format instruction with a zero-extended immediate.
func U(op uint32, rt, rs int, uimm uint32) Inst {
	return Inst{Op: op, Rt: rt, Rs: rs, Uimm: uimm & 0xFFFF, Imm: int32(int16(uimm))}
}

// J builds a J-format instruction targeting the given byte address.
func Jump(op uint32, addr Word) Inst {
	return Inst{Op: op, Targ: addr >> 2}
}

// Nop is the canonical no-op (sll zero, zero, 0).
func Nop() Inst { return Inst{} }

// Landmark is the designated-sequence landmark no-op.
func Landmark() Inst { return Inst{Op: OpSpecial, Funct: FnLANDMARK} }

// Syscall builds a syscall instruction.
func Syscall() Inst { return Inst{Op: OpSpecial, Funct: FnSYSCALL} }

// Break builds a break instruction.
func Break() Inst { return Inst{Op: OpSpecial, Funct: FnBREAK} }

// Lw builds "lw rt, imm(rs)".
func Lw(rt, rs int, imm int32) Inst { return I(OpLW, rt, rs, imm) }

// Sw builds "sw rt, imm(rs)".
func Sw(rt, rs int, imm int32) Inst { return I(OpSW, rt, rs, imm) }

// Sc builds "sc rt, imm(rs)" (store-conditional).
func Sc(rt, rs int, imm int32) Inst { return I(OpSC, rt, rs, imm) }

// Lui builds "lui rt, uimm".
func Lui(rt int, uimm uint32) Inst { return U(OpLUI, rt, 0, uimm) }

// Ori builds "ori rt, rs, uimm".
func Ori(rt, rs int, uimm uint32) Inst { return U(OpORI, rt, rs, uimm) }

// Addi builds "addi rt, rs, imm".
func Addi(rt, rs int, imm int32) Inst { return I(OpADDI, rt, rs, imm) }

// Bne builds "bne rs, rt, off".
func Bne(rs, rt int, off int32) Inst { return I(OpBNE, rt, rs, off) }

// Flush builds "flush imm(rs)" (line write-back toward NVM).
func Flush(rs int, imm int32) Inst { return I(OpFLUSH, 0, rs, imm) }

// Fence builds "fence" (persist barrier).
func Fence() Inst { return Inst{Op: OpFENCE} }

// Jr builds "jr rs".
func Jr(rs int) Inst { return Inst{Op: OpSpecial, Funct: FnJR, Rs: rs} }

// Move builds "move rd, rs" (or rd, rs, zero).
func Move(rd, rs int) Inst { return R(FnOR, rd, rs, RegZero) }

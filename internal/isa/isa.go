// Package isa defines the instruction set of the simulated uniprocessor:
// a 32-bit, MIPS-R3000-flavoured load/store RISC with a handful of
// synchronization extensions (interlocked test-and-set, exchange,
// fetch-and-add, and an i860-style lock-bit prefix).
//
// The encoding matters: the Taos-style designated-sequence recognizer in the
// kernel inspects the raw instruction stream of a suspended thread, so
// instructions are real 32-bit words with R/I/J formats, not an AST.
package isa

import "fmt"

// Word is the machine word: 32 bits, as on the MIPS R3000.
type Word = uint32

// Register numbers. Names follow the MIPS o32 convention so that the guest
// assembly in the paper's figures can be transcribed almost verbatim.
const (
	RegZero = 0 // hardwired zero
	RegAT   = 1 // assembler temporary
	RegV0   = 2 // return value / syscall number
	RegV1   = 3
	RegA0   = 4 // arguments
	RegA1   = 5
	RegA2   = 6
	RegA3   = 7
	RegT0   = 8 // caller-saved temporaries
	RegT1   = 9
	RegT2   = 10
	RegT3   = 11
	RegT4   = 12
	RegT5   = 13
	RegT6   = 14
	RegT7   = 15
	RegS0   = 16 // callee-saved
	RegS1   = 17
	RegS2   = 18
	RegS3   = 19
	RegS4   = 20
	RegS5   = 21
	RegS6   = 22
	RegS7   = 23
	RegT8   = 24
	RegT9   = 25
	RegK0   = 26 // reserved for kernel
	RegK1   = 27
	RegGP   = 28
	RegSP   = 29
	RegFP   = 30
	RegRA   = 31

	NumRegs = 32
)

var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// RegName returns the conventional assembly name ("t0", "sp", ...) of r.
func RegName(r int) string {
	if r < 0 || r >= NumRegs {
		return fmt.Sprintf("r?%d", r)
	}
	return regNames[r]
}

// RegByName maps an assembly register name (with or without the leading '$')
// to its number. It accepts both symbolic names ("t0") and numeric names
// ("8", "r8").
func RegByName(name string) (int, bool) {
	if len(name) > 0 && name[0] == '$' {
		name = name[1:]
	}
	for i, n := range regNames {
		if n == name {
			return i, true
		}
	}
	// Numeric forms.
	s := name
	if len(s) > 1 && (s[0] == 'r' || s[0] == 'R') {
		s = s[1:]
	}
	v := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if len(s) == 0 || v >= NumRegs {
		return 0, false
	}
	return v, true
}

// Primary opcodes (bits 31..26).
const (
	OpSpecial = 0x00 // R-type; funct field selects the operation
	OpJ       = 0x02
	OpJAL     = 0x03
	OpBEQ     = 0x04
	OpBNE     = 0x05
	OpBLEZ    = 0x06
	OpBGTZ    = 0x07
	OpADDI    = 0x08
	OpSLTI    = 0x0A
	OpSLTIU   = 0x0B
	OpANDI    = 0x0C
	OpORI     = 0x0D
	OpXORI    = 0x0E
	OpLUI     = 0x0F
	OpLW      = 0x23
	OpSW      = 0x2B

	// Synchronization extensions. These are the "memory-interlocked
	// instructions" of the paper's section 2.1; whether a given processor
	// profile implements them is an arch.Profile property.
	OpTAS   = 0x30 // rt <- mem[rs+imm]; mem[rs+imm] <- 1   (atomic)
	OpXCHG  = 0x31 // tmp <- mem[rs+imm]; mem[rs+imm] <- rt; rt <- tmp
	OpFAA   = 0x32 // rt <- mem[rs+imm]; mem[rs+imm] <- rt + 1
	OpLOCKB = 0x33 // i860-style: begin hardware restartable sequence

	// Load-linked / store-conditional (R4000-style, §7's cross-processor
	// arbitration). ll arms a per-CPU reservation on the loaded line; sc
	// stores only if the reservation survived (no intervening context
	// switch on this CPU, no remote write to the line) and leaves 1 in rt
	// on success, 0 on failure. Profiles gate them via HasLLSC.
	OpLL = 0x34 // rt <- mem[rs+imm]; reserve the line
	OpSC = 0x35 // if reserved: mem[rs+imm] <- rt, rt <- 1; else rt <- 0

	// Persistence extensions (clwb/sfence-style, for the NVRAM model).
	// flush initiates write-back of the 64-byte line holding rs+imm from
	// the volatile tier toward NVM; fence makes every initiated write-back
	// durable. Data is only crash-safe after flush AND a following fence.
	// Both are hints on machines without a persistence domain.
	OpFLUSH = 0x36 // write back line of mem[rs+imm] (rt unused)
	OpFENCE = 0x37 // drain: all flushed lines become durable
)

// SPECIAL function codes (bits 5..0 when Op == OpSpecial).
const (
	FnSLL     = 0x00
	FnSRL     = 0x02
	FnSRA     = 0x03
	FnJR      = 0x08
	FnJALR    = 0x09
	FnSYSCALL = 0x0C
	FnBREAK   = 0x0D
	FnADD     = 0x20 // wrapping add (no overflow traps)
	FnSUB     = 0x22
	FnAND     = 0x24
	FnOR      = 0x25
	FnXOR     = 0x26
	FnNOR     = 0x27
	FnSLT     = 0x2A
	FnSLTU    = 0x2B

	// FnLANDMARK is the designated-sequence landmark: a non-destructive
	// register move that the assembler never emits except via the explicit
	// "landmark" mnemonic, exactly as the Taos compiler reserved a no-op
	// encoding for this purpose (paper §3.2).
	FnLANDMARK = 0x3F
)

// Format describes how an instruction's fields are laid out.
type Format int

const (
	FormatR Format = iota
	FormatI
	FormatJ
)

// Inst is a decoded instruction. The zero value is "sll zero, zero, 0",
// i.e. the canonical nop.
type Inst struct {
	Op    uint32 // primary opcode
	Rs    int
	Rt    int
	Rd    int
	Shamt int
	Funct uint32 // valid when Op == OpSpecial
	Imm   int32  // sign-extended 16-bit immediate (I-format)
	Uimm  uint32 // zero-extended 16-bit immediate (logical ops, LUI)
	Targ  uint32 // 26-bit jump target (J-format), word index
}

// IsNop reports whether the instruction is the canonical no-op.
func (i Inst) IsNop() bool {
	return i.Op == OpSpecial && i.Funct == FnSLL && i.Rd == 0 && i.Rt == 0 && i.Shamt == 0
}

// IsLandmark reports whether the instruction is the designated-sequence
// landmark no-op.
func (i Inst) IsLandmark() bool {
	return i.Op == OpSpecial && i.Funct == FnLANDMARK
}

// FormatOf returns the encoding format of opcode op.
func FormatOf(op uint32) Format {
	switch op {
	case OpSpecial:
		return FormatR
	case OpJ, OpJAL:
		return FormatJ
	default:
		return FormatI
	}
}

// Encode packs the instruction into a 32-bit word.
func Encode(i Inst) Word {
	switch FormatOf(i.Op) {
	case FormatR:
		return i.Op<<26 |
			uint32(i.Rs&31)<<21 |
			uint32(i.Rt&31)<<16 |
			uint32(i.Rd&31)<<11 |
			uint32(i.Shamt&31)<<6 |
			(i.Funct & 0x3F)
	case FormatJ:
		return i.Op<<26 | (i.Targ & 0x03FFFFFF)
	default:
		imm := i.Uimm
		if !usesUnsignedImm(i.Op) {
			imm = uint32(i.Imm) & 0xFFFF
		}
		return i.Op<<26 |
			uint32(i.Rs&31)<<21 |
			uint32(i.Rt&31)<<16 |
			(imm & 0xFFFF)
	}
}

// usesUnsignedImm reports whether the opcode's immediate field is
// zero-extended rather than sign-extended.
func usesUnsignedImm(op uint32) bool {
	switch op {
	case OpANDI, OpORI, OpXORI, OpLUI:
		return true
	}
	return false
}

// Decode unpacks a 32-bit instruction word.
func Decode(w Word) Inst {
	op := w >> 26
	switch FormatOf(op) {
	case FormatR:
		return Inst{
			Op:    op,
			Rs:    int(w >> 21 & 31),
			Rt:    int(w >> 16 & 31),
			Rd:    int(w >> 11 & 31),
			Shamt: int(w >> 6 & 31),
			Funct: w & 0x3F,
		}
	case FormatJ:
		return Inst{Op: op, Targ: w & 0x03FFFFFF}
	default:
		raw := w & 0xFFFF
		return Inst{
			Op:   op,
			Rs:   int(w >> 21 & 31),
			Rt:   int(w >> 16 & 31),
			Imm:  int32(int16(raw)),
			Uimm: raw,
		}
	}
}

// Predecoded is one instruction word decoded ahead of time: Inst and Class
// are exactly Decode(Raw) and ClassOf(Decode(Raw)). Raw is kept so a user
// of the entry can check that memory still holds the word it was built
// from.
type Predecoded struct {
	Raw   Word
	Class Class
	Inst  Inst
}

// Predecode decodes every word of a program text.
func Predecode(text []Word) []Predecoded {
	out := make([]Predecoded, len(text))
	for i, w := range text {
		inst := Decode(w)
		out[i] = Predecoded{Raw: w, Class: ClassOf(inst), Inst: inst}
	}
	return out
}

// Class partitions instructions for the cycle-cost model.
type Class int

const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassTrap        // syscall, break
	ClassInterlocked // TAS, XCHG, FAA
	ClassLockB
	ClassFlush // line write-back toward NVM
	ClassFence // persist barrier

	NumClasses = iota // the number of classes, for per-class tables
)

// ClassOf returns the cost class of a decoded instruction.
func ClassOf(i Inst) Class {
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnJR, FnJALR:
			return ClassJump
		case FnSYSCALL, FnBREAK:
			return ClassTrap
		default:
			return ClassALU
		}
	case OpLW, OpLL:
		return ClassLoad
	case OpSW, OpSC:
		return ClassStore
	case OpBEQ, OpBNE, OpBLEZ, OpBGTZ:
		return ClassBranch
	case OpJ, OpJAL:
		return ClassJump
	case OpTAS, OpXCHG, OpFAA:
		return ClassInterlocked
	case OpLOCKB:
		return ClassLockB
	case OpFLUSH:
		return ClassFlush
	case OpFENCE:
		return ClassFence
	default:
		return ClassALU
	}
}

// Mnemonic returns the assembly mnemonic for a decoded instruction.
func Mnemonic(i Inst) string {
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnSLL:
			if i.IsNop() {
				return "nop"
			}
			return "sll"
		case FnSRL:
			return "srl"
		case FnSRA:
			return "sra"
		case FnJR:
			return "jr"
		case FnJALR:
			return "jalr"
		case FnSYSCALL:
			return "syscall"
		case FnBREAK:
			return "break"
		case FnADD:
			return "add"
		case FnSUB:
			return "sub"
		case FnAND:
			return "and"
		case FnOR:
			return "or"
		case FnXOR:
			return "xor"
		case FnNOR:
			return "nor"
		case FnSLT:
			return "slt"
		case FnSLTU:
			return "sltu"
		case FnLANDMARK:
			return "landmark"
		}
		return fmt.Sprintf("special?%#x", i.Funct)
	case OpJ:
		return "j"
	case OpJAL:
		return "jal"
	case OpBEQ:
		return "beq"
	case OpBNE:
		return "bne"
	case OpBLEZ:
		return "blez"
	case OpBGTZ:
		return "bgtz"
	case OpADDI:
		return "addi"
	case OpSLTI:
		return "slti"
	case OpSLTIU:
		return "sltiu"
	case OpANDI:
		return "andi"
	case OpORI:
		return "ori"
	case OpXORI:
		return "xori"
	case OpLUI:
		return "lui"
	case OpLW:
		return "lw"
	case OpSW:
		return "sw"
	case OpTAS:
		return "tas"
	case OpXCHG:
		return "xchg"
	case OpFAA:
		return "faa"
	case OpLOCKB:
		return "lockb"
	case OpLL:
		return "ll"
	case OpSC:
		return "sc"
	case OpFLUSH:
		return "flush"
	case OpFENCE:
		return "fence"
	}
	return fmt.Sprintf("op?%#x", i.Op)
}

// String disassembles the instruction into canonical assembly syntax.
func (i Inst) String() string {
	m := Mnemonic(i)
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnSLL, FnSRL, FnSRA:
			if i.IsNop() {
				return "nop"
			}
			return fmt.Sprintf("%s %s, %s, %d", m, RegName(i.Rd), RegName(i.Rt), i.Shamt)
		case FnJR:
			return fmt.Sprintf("jr %s", RegName(i.Rs))
		case FnJALR:
			return fmt.Sprintf("jalr %s, %s", RegName(i.Rd), RegName(i.Rs))
		case FnSYSCALL:
			return "syscall"
		case FnBREAK:
			return "break"
		case FnLANDMARK:
			return "landmark"
		default:
			return fmt.Sprintf("%s %s, %s, %s", m, RegName(i.Rd), RegName(i.Rs), RegName(i.Rt))
		}
	case OpJ, OpJAL:
		return fmt.Sprintf("%s %#x", m, i.Targ<<2)
	case OpBEQ, OpBNE:
		return fmt.Sprintf("%s %s, %s, %d", m, RegName(i.Rs), RegName(i.Rt), i.Imm)
	case OpBLEZ, OpBGTZ:
		return fmt.Sprintf("%s %s, %d", m, RegName(i.Rs), i.Imm)
	case OpLUI:
		return fmt.Sprintf("lui %s, %#x", RegName(i.Rt), i.Uimm)
	case OpLW, OpSW, OpTAS, OpXCHG, OpFAA, OpLL, OpSC:
		return fmt.Sprintf("%s %s, %d(%s)", m, RegName(i.Rt), i.Imm, RegName(i.Rs))
	case OpLOCKB:
		return "lockb"
	case OpFLUSH: // rt is a don't-care; the canonical form omits it
		return fmt.Sprintf("flush %d(%s)", i.Imm, RegName(i.Rs))
	case OpFENCE:
		return "fence"
	case OpANDI, OpORI, OpXORI:
		return fmt.Sprintf("%s %s, %s, %#x", m, RegName(i.Rt), RegName(i.Rs), i.Uimm)
	default: // addi, slti, sltiu
		return fmt.Sprintf("%s %s, %s, %d", m, RegName(i.Rt), RegName(i.Rs), i.Imm)
	}
}

package isa

import (
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		num  int
		name string
	}{
		{RegZero, "zero"}, {RegAT, "at"}, {RegV0, "v0"}, {RegA0, "a0"},
		{RegT0, "t0"}, {RegS0, "s0"}, {RegSP, "sp"}, {RegRA, "ra"},
	}
	for _, c := range cases {
		if got := RegName(c.num); got != c.name {
			t.Errorf("RegName(%d) = %q, want %q", c.num, got, c.name)
		}
		n, ok := RegByName(c.name)
		if !ok || n != c.num {
			t.Errorf("RegByName(%q) = %d,%v, want %d", c.name, n, ok, c.num)
		}
		n, ok = RegByName("$" + c.name)
		if !ok || n != c.num {
			t.Errorf("RegByName($%q) = %d,%v, want %d", c.name, n, ok, c.num)
		}
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName accepted bogus register")
	}
	if _, ok := RegByName("r32"); ok {
		t.Error("RegByName accepted out-of-range register")
	}
	if n, ok := RegByName("r8"); !ok || n != RegT0 {
		t.Errorf("RegByName(r8) = %d,%v", n, ok)
	}
	if n, ok := RegByName("31"); !ok || n != RegRA {
		t.Errorf("RegByName(31) = %d,%v", n, ok)
	}
	if got := RegName(-1); got == "" {
		t.Error("RegName(-1) empty")
	}
}

func TestEncodeDecodeRoundTripR(t *testing.T) {
	in := R(FnADD, RegT0, RegT1, RegT2)
	out := Decode(Encode(in))
	if out != in {
		t.Errorf("round trip R: got %+v want %+v", out, in)
	}
}

func TestEncodeDecodeRoundTripI(t *testing.T) {
	in := Lw(RegV0, RegA0, -4)
	out := Decode(Encode(in))
	if out != in {
		t.Errorf("round trip I: got %+v want %+v", out, in)
	}
	if out.Imm != -4 {
		t.Errorf("sign extension lost: Imm=%d", out.Imm)
	}
}

func TestEncodeDecodeRoundTripUnsigned(t *testing.T) {
	in := Lui(RegT0, 0x8000)
	out := Decode(Encode(in))
	if out.Uimm != 0x8000 {
		t.Errorf("lui uimm = %#x, want 0x8000", out.Uimm)
	}
}

func TestEncodeDecodeRoundTripJ(t *testing.T) {
	in := Jump(OpJAL, 0x1000)
	out := Decode(Encode(in))
	if out.Op != OpJAL || out.Targ != 0x400 {
		t.Errorf("round trip J: got %+v", out)
	}
}

// TestQuickRoundTrip property: any decoded word re-encodes to itself for the
// defined opcodes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(w uint32) bool {
		inst := Decode(w)
		// Skip undefined opcodes whose spare bits we do not preserve.
		switch inst.Op {
		case OpSpecial, OpJ, OpJAL, OpBEQ, OpBNE, OpBLEZ, OpBGTZ,
			OpADDI, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI, OpLUI,
			OpLW, OpSW, OpTAS, OpXCHG, OpFAA, OpLOCKB:
			return Encode(inst) == w
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestNopAndLandmark(t *testing.T) {
	if !Nop().IsNop() {
		t.Error("Nop() not recognized as nop")
	}
	if Nop().IsLandmark() {
		t.Error("nop misidentified as landmark")
	}
	lm := Landmark()
	if !lm.IsLandmark() {
		t.Error("Landmark() not recognized")
	}
	if lm.IsNop() {
		t.Error("landmark misidentified as nop")
	}
	// The landmark must survive an encode/decode round trip: the kernel
	// recognizes it from raw memory.
	if !Decode(Encode(lm)).IsLandmark() {
		t.Error("landmark lost in encoding")
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		in   Inst
		want Class
	}{
		{R(FnADD, 1, 2, 3), ClassALU},
		{Lw(1, 2, 0), ClassLoad},
		{Sw(1, 2, 0), ClassStore},
		{Beq(1, 2, 4), ClassBranch},
		{Jump(OpJ, 0), ClassJump},
		{Jr(RegRA), ClassJump},
		{Syscall(), ClassTrap},
		{Break(), ClassTrap},
		{Tas(1, 2, 0), ClassInterlocked},
		{I(OpXCHG, 1, 2, 0), ClassInterlocked},
		{I(OpFAA, 1, 2, 0), ClassInterlocked},
		{Inst{Op: OpLOCKB}, ClassLockB},
		{Landmark(), ClassALU},
	}
	for _, c := range cases {
		if got := ClassOf(c.in); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMnemonics(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Nop(), "nop"},
		{Landmark(), "landmark"},
		{Lw(RegV0, RegA0, 0), "lw"},
		{Sw(RegT0, RegA0, 0), "sw"},
		{Tas(RegV0, RegA0, 0), "tas"},
		{Syscall(), "syscall"},
		{Jr(RegRA), "jr"},
		{Lui(RegT0, 1), "lui"},
	}
	for _, c := range cases {
		if got := Mnemonic(c.in); got != c.want {
			t.Errorf("Mnemonic(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStringDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Lw(RegV0, RegA0, 0), "lw v0, 0(a0)"},
		{Sw(RegT0, RegA0, 4), "sw t0, 4(a0)"},
		{Ori(RegT0, RegZero, 1), "ori t0, zero, 0x1"},
		{Jr(RegRA), "jr ra"},
		{Nop(), "nop"},
		{Landmark(), "landmark"},
		{Move(RegT0, RegT1), "or t0, t1, zero"},
		{Bne(RegV0, RegZero, 2), "bne v0, zero, 2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBranchOffsetsAreSigned(t *testing.T) {
	in := Bne(RegV0, RegZero, -3)
	out := Decode(Encode(in))
	if out.Imm != -3 {
		t.Errorf("branch offset = %d, want -3", out.Imm)
	}
}

// Exhaustive disassembly: every defined instruction form renders with its
// mnemonic and survives an encode/decode round trip.
func TestAllFormsDisassemble(t *testing.T) {
	forms := []Inst{
		Shift(FnSLL, RegT0, RegT1, 4),
		Shift(FnSRL, RegT0, RegT1, 4),
		Shift(FnSRA, RegT0, RegT1, 4),
		R(FnADD, RegT0, RegT1, RegT2),
		R(FnSUB, RegT0, RegT1, RegT2),
		R(FnAND, RegT0, RegT1, RegT2),
		R(FnOR, RegT0, RegT1, RegT2),
		R(FnXOR, RegT0, RegT1, RegT2),
		R(FnNOR, RegT0, RegT1, RegT2),
		R(FnSLT, RegT0, RegT1, RegT2),
		R(FnSLTU, RegT0, RegT1, RegT2),
		Jr(RegRA),
		{Op: OpSpecial, Funct: FnJALR, Rd: RegRA, Rs: RegT0},
		Syscall(),
		Break(),
		Landmark(),
		Jump(OpJ, 0x2000),
		Jump(OpJAL, 0x2000),
		Beq(RegT0, RegT1, -2),
		Bne(RegT0, RegT1, 2),
		I(OpBLEZ, 0, RegT0, 3),
		I(OpBGTZ, 0, RegT0, 3),
		Addi(RegT0, RegT1, -7),
		I(OpSLTI, RegT0, RegT1, 5),
		I(OpSLTIU, RegT0, RegT1, 5),
		U(OpANDI, RegT0, RegT1, 0xFF),
		Ori(RegT0, RegT1, 0xFF),
		U(OpXORI, RegT0, RegT1, 0xFF),
		Lui(RegT0, 0x8000),
		Lw(RegT0, RegSP, -4),
		Sw(RegT0, RegSP, -4),
		Tas(RegT0, RegA0, 0),
		I(OpXCHG, RegT0, RegA0, 0),
		I(OpFAA, RegT0, RegA0, 0),
		{Op: OpLOCKB},
	}
	for _, in := range forms {
		s := in.String()
		if s == "" {
			t.Errorf("%+v: empty disassembly", in)
		}
		m := Mnemonic(in)
		if m == "" || m[0] == 'o' && m[1] == 'p' && m[2] == '?' {
			t.Errorf("%+v: bad mnemonic %q", in, m)
		}
		out := Decode(Encode(in))
		if out != in {
			t.Errorf("round trip %v: got %+v want %+v", s, out, in)
		}
	}
}

func TestUndefinedFormsRenderGracefully(t *testing.T) {
	bad := Inst{Op: 0x3F}
	if bad.String() == "" || Mnemonic(bad) == "" {
		t.Error("undefined opcode should still render")
	}
	badFn := Inst{Op: OpSpecial, Funct: 0x3E}
	if Mnemonic(badFn) == "" {
		t.Error("undefined funct should still render")
	}
	if ClassOf(bad) != ClassALU {
		t.Error("unknown opcode should default to ALU class")
	}
}

func TestFormatOf(t *testing.T) {
	if FormatOf(OpSpecial) != FormatR || FormatOf(OpJ) != FormatJ ||
		FormatOf(OpJAL) != FormatJ || FormatOf(OpLW) != FormatI {
		t.Error("format classification wrong")
	}
}

// A predecoded entry is exactly what decoding its raw word yields.
func TestPredecodeMatchesDecode(t *testing.T) {
	f := func(words []uint32) bool {
		pre := Predecode(words)
		for i, w := range words {
			inst := Decode(w)
			if pre[i] != (Predecoded{Raw: w, Class: ClassOf(inst), Inst: inst}) {
				return false
			}
		}
		return len(pre) == len(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// BenchmarkDecode is the host cost of decoding and classifying one word,
// the work the interpreter skips for predecoded text.
func BenchmarkDecode(b *testing.B) {
	text := []Word{
		Encode(Lw(RegV0, RegS1, 0)), Encode(Ori(RegT0, RegZero, 1)),
		Encode(Bne(RegV0, RegZero, 3)), Encode(Landmark()),
		Encode(Sw(RegT0, RegS1, 0)), Encode(Addi(RegS0, RegS0, -1)),
		Encode(Jump(OpJ, 0x1000)), Encode(R(FnADD, RegT2, RegT0, RegT1)),
	}
	for i := 0; i < b.N; i++ {
		decodeSink = ClassOf(Decode(text[i%len(text)]))
	}
}

var decodeSink Class

// Tas builds the interlocked "tas rt, imm(rs)".
func Tas(rt, rs int, imm int32) Inst { return I(OpTAS, rt, rs, imm) }

// Beq builds "beq rs, rt, off" where off is in instructions from the
// following instruction (standard MIPS relative-branch convention).
func Beq(rs, rt int, off int32) Inst { return I(OpBEQ, rt, rs, off) }

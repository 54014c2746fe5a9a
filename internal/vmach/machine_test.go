package vmach

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/isa"
)

// run assembles src, loads it, and executes until break or limit steps,
// returning the machine and final context.
func run(t *testing.T, p *arch.Profile, src string, limit int) (*Machine, *Context) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p)
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	ctx := &Context{PC: prog.TextBase}
	ctx.Regs[isa.RegSP] = 0x0008_0000
	for i := 0; i < limit; i++ {
		ev := m.Step(ctx)
		switch ev.Kind {
		case EventNone:
		case EventBreak:
			return m, ctx
		default:
			t.Fatalf("unexpected event %+v at pc=%#x", ev, ctx.PC)
		}
	}
	t.Fatalf("program did not halt in %d steps", limit)
	return nil, nil
}

func TestArithmetic(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li   t0, 10
		li   t1, 3
		add  t2, t0, t1
		sub  t3, t0, t1
		and  t4, t0, t1
		or   t5, t0, t1
		xor  t6, t0, t1
		slt  t7, t1, t0
		sltu s0, t0, t1
		nor  s1, zero, zero
		break
	`, 100)
	checks := []struct {
		reg  int
		want isa.Word
	}{
		{isa.RegT2, 13}, {isa.RegT3, 7}, {isa.RegT4, 2}, {isa.RegT5, 11},
		{isa.RegT6, 9}, {isa.RegT7, 1}, {isa.RegS0, 0}, {isa.RegS1, 0xFFFFFFFF},
	}
	for _, c := range checks {
		if got := ctx.Regs[c.reg]; got != c.want {
			t.Errorf("%s = %d, want %d", isa.RegName(c.reg), got, c.want)
		}
	}
}

func TestShifts(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li  t0, 0x80000000
		srl t1, t0, 4
		sra t2, t0, 4
		li  t3, 1
		sll t4, t3, 31
		break
	`, 100)
	if ctx.Regs[isa.RegT1] != 0x08000000 {
		t.Errorf("srl = %#x", ctx.Regs[isa.RegT1])
	}
	if ctx.Regs[isa.RegT2] != 0xF8000000 {
		t.Errorf("sra = %#x", ctx.Regs[isa.RegT2])
	}
	if ctx.Regs[isa.RegT4] != 0x80000000 {
		t.Errorf("sll = %#x", ctx.Regs[isa.RegT4])
	}
}

func TestZeroRegisterIsHardwired(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li   t0, 5
		add  zero, t0, t0
		break
	`, 100)
	if ctx.Regs[isa.RegZero] != 0 {
		t.Error("write to $zero took effect")
	}
}

func TestLoadStore(t *testing.T) {
	m, ctx := run(t, arch.R3000(), `
		la  a0, x
		li  t0, 42
		sw  t0, 0(a0)
		lw  t1, 0(a0)
		lw  t2, 4(a0)
		break
		.data
	x:	.word 0, 99
	`, 100)
	if ctx.Regs[isa.RegT1] != 42 {
		t.Errorf("lw = %d", ctx.Regs[isa.RegT1])
	}
	if ctx.Regs[isa.RegT2] != 99 {
		t.Errorf("lw+4 = %d", ctx.Regs[isa.RegT2])
	}
	if m.Stats.Loads != 2 || m.Stats.Stores != 1 {
		t.Errorf("stats loads=%d stores=%d", m.Stats.Loads, m.Stats.Stores)
	}
}

func TestBranchesAndLoop(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li   t0, 0
		li   t1, 10
	loop:
		addi t0, t0, 1
		bne  t0, t1, loop
		break
	`, 1000)
	if ctx.Regs[isa.RegT0] != 10 {
		t.Errorf("loop counter = %d, want 10", ctx.Regs[isa.RegT0])
	}
}

func TestJalJr(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		jal  fn
		break
	fn:	li   v0, 123
		jr   ra
	`, 100)
	if ctx.Regs[isa.RegV0] != 123 {
		t.Errorf("v0 = %d", ctx.Regs[isa.RegV0])
	}
}

func TestJalr(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		la   t0, fn
		jalr t0
		break
	fn:	li   v0, 7
		jr   ra
	`, 100)
	if ctx.Regs[isa.RegV0] != 7 {
		t.Errorf("v0 = %d", ctx.Regs[isa.RegV0])
	}
}

func TestSyscallEvent(t *testing.T) {
	prog, err := asm.Assemble("li v0, 9\nsyscall\nbreak")
	if err != nil {
		t.Fatal(err)
	}
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	ctx := &Context{PC: prog.TextBase}
	var ev Event
	for i := 0; i < 10; i++ {
		ev = m.Step(ctx)
		if ev.Kind != EventNone {
			break
		}
	}
	if ev.Kind != EventSyscall {
		t.Fatalf("event = %+v, want syscall", ev)
	}
	if ctx.Regs[isa.RegV0] != 9 {
		t.Errorf("syscall number = %d", ctx.Regs[isa.RegV0])
	}
	// PC advanced past the syscall so the kernel can just resume.
	if ctx.PC != ev.SyscallPC+4 {
		t.Errorf("pc = %#x, want %#x", ctx.PC, ev.SyscallPC+4)
	}
}

func TestInterlockedTas(t *testing.T) {
	_, ctx := run(t, arch.I486(), `
		la   a0, lock
		tas  v0, 0(a0)
		tas  v1, 0(a0)
		break
		.data
	lock: .word 0
	`, 100)
	if ctx.Regs[isa.RegV0] != 0 {
		t.Errorf("first tas = %d, want 0 (was free)", ctx.Regs[isa.RegV0])
	}
	if ctx.Regs[isa.RegV1] != 1 {
		t.Errorf("second tas = %d, want 1 (was held)", ctx.Regs[isa.RegV1])
	}
}

func TestXchgAndFaa(t *testing.T) {
	_, ctx := run(t, arch.I486(), `
		la   a0, x
		li   t0, 77
		xchg t0, 0(a0)
		faa  t1, 0(a0)
		lw   t2, 0(a0)
		break
		.data
	x:	.word 5
	`, 100)
	if ctx.Regs[isa.RegT0] != 5 {
		t.Errorf("xchg old = %d, want 5", ctx.Regs[isa.RegT0])
	}
	if ctx.Regs[isa.RegT1] != 77 {
		t.Errorf("faa old = %d, want 77", ctx.Regs[isa.RegT1])
	}
	if ctx.Regs[isa.RegT2] != 78 {
		t.Errorf("final = %d, want 78", ctx.Regs[isa.RegT2])
	}
}

func TestInterlockedIllegalOnR3000(t *testing.T) {
	prog, err := asm.Assemble("la a0, x\ntas v0, 0(a0)\nbreak\n.data\nx: .word 0")
	if err != nil {
		t.Fatal(err)
	}
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	ctx := &Context{PC: prog.TextBase}
	var ev Event
	for i := 0; i < 10; i++ {
		ev = m.Step(ctx)
		if ev.Kind != EventNone {
			break
		}
	}
	if ev.Kind != EventFault || ev.Fault.Kind != FaultIllegal {
		t.Fatalf("event = %+v, want illegal-instruction fault", ev)
	}
}

func TestLockBit(t *testing.T) {
	prog, err := asm.Assemble(`
		la   a0, x
		lockb
		lw   t0, 0(a0)
		addi t0, t0, 1
		sw   t0, 0(a0)
		break
		.data
	x:	.word 10
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(arch.I860())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	ctx := &Context{PC: prog.TextBase}
	sawActive := false
	for i := 0; i < 50; i++ {
		ev := m.Step(ctx)
		if ctx.LockActive {
			sawActive = true
		}
		if ev.Kind == EventBreak {
			break
		}
	}
	if !sawActive {
		t.Error("lock bit never set")
	}
	if ctx.LockActive {
		t.Error("lock bit not cleared by store")
	}
	if m.Stats.LockBStarts != 1 {
		t.Errorf("LockBStarts = %d", m.Stats.LockBStarts)
	}
}

func TestLockBitExpires(t *testing.T) {
	// A long run of ALU ops exhausts the 32-cycle hardware window.
	src := "lockb\n"
	for i := 0; i < 40; i++ {
		src += "addi t0, t0, 1\n"
	}
	src += "break"
	m, ctx := run(t, arch.I860(), src, 200)
	if ctx.LockActive {
		t.Error("lock bit still active after window")
	}
	if m.Stats.LockBExpired != 1 {
		t.Errorf("LockBExpired = %d", m.Stats.LockBExpired)
	}
}

func TestLockBIllegalWithoutSupport(t *testing.T) {
	prog, _ := asm.Assemble("lockb\nbreak")
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	ctx := &Context{PC: prog.TextBase}
	ev := m.Step(ctx)
	if ev.Kind != EventFault || ev.Fault.Kind != FaultIllegal {
		t.Fatalf("event = %+v, want illegal fault", ev)
	}
}

func TestUnalignedFault(t *testing.T) {
	prog, _ := asm.Assemble("li a0, 0x10001\nlw t0, 0(a0)\nbreak")
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	ctx := &Context{PC: prog.TextBase}
	var ev Event
	for i := 0; i < 10; i++ {
		if ev = m.Step(ctx); ev.Kind != EventNone {
			break
		}
	}
	if ev.Kind != EventFault || ev.Fault.Kind != FaultUnaligned {
		t.Fatalf("event = %+v, want unaligned fault", ev)
	}
}

func TestPageFault(t *testing.T) {
	prog, _ := asm.Assemble("la a0, x\nlw t0, 0(a0)\nbreak\n.data\nx: .word 1")
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	m.Mem.SetPresent(prog.DataBase, false)
	ctx := &Context{PC: prog.TextBase}
	var ev Event
	for i := 0; i < 10; i++ {
		if ev = m.Step(ctx); ev.Kind != EventNone {
			break
		}
	}
	if ev.Kind != EventFault || ev.Fault.Kind != FaultNotPresent {
		t.Fatalf("event = %+v, want page fault", ev)
	}
	if m.Mem.PageFaults != 1 {
		t.Errorf("PageFaults = %d", m.Mem.PageFaults)
	}
	// Make it present again; the access must now succeed and see the
	// preserved contents.
	m.Mem.SetPresent(prog.DataBase, true)
	ev = m.Step(ctx)
	if ev.Kind != EventNone {
		t.Fatalf("retry event = %+v", ev)
	}
}

func TestCycleAccounting(t *testing.T) {
	// On the R3000 profile: ori(1 ALU) + nop pad(1) + sw(2) + break.
	m, _ := run(t, arch.R3000(), `
		li  t0, 1
		la  a0, x
		sw  t0, 0(a0)
		break
		.data
	x:	.word 0
	`, 100)
	// li = ori+nop (2 ALU), la = 2 ALU (or with nop pad), sw = 2, break trap.
	wantMin := uint64(2 + 2 + 2)
	if m.Stats.Cycles < wantMin {
		t.Errorf("cycles = %d, want >= %d", m.Stats.Cycles, wantMin)
	}
	if m.Stats.Instructions == 0 {
		t.Error("no instructions counted")
	}
}

func TestFaultErrorStrings(t *testing.T) {
	f := &Fault{FaultNotPresent, 0x1234}
	if f.Error() == "" {
		t.Error("empty fault error")
	}
	for _, k := range []FaultKind{FaultNone, FaultUnaligned, FaultNotPresent, FaultIllegal} {
		if k.String() == "" {
			t.Errorf("FaultKind(%d).String empty", k)
		}
	}
}

func TestMachineString(t *testing.T) {
	m := New(arch.R3000())
	if m.String() == "" {
		t.Error("empty machine string")
	}
	if m.Micros() != 0 {
		t.Error("fresh machine has nonzero time")
	}
}

func TestMemoryPeekPoke(t *testing.T) {
	mem := NewMemory()
	mem.Poke(0x5000, 0xABCD)
	if mem.Peek(0x5000) != 0xABCD {
		t.Error("peek/poke mismatch")
	}
	mem.SetPresent(0x5000, false)
	if mem.Present(0x5000) {
		t.Error("page still present")
	}
	if mem.Peek(0x5000) != 0xABCD {
		t.Error("peek should bypass presence")
	}
	if _, f := mem.LoadWord(0x5000); f == nil {
		t.Error("load of non-present page did not fault")
	}
	if f := mem.StoreWord(0x5000, 1); f == nil {
		t.Error("store to non-present page did not fault")
	}
}

func TestBranchVariants(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li   t0, -1
		li   t1, 1
		li   s0, 0
		blez t0, a
		li   s0, 99
	a:	bgtz t1, b
		li   s0, 98
	b:	blez t1, c
		addi s0, s0, 5
	c:	bgtz t0, d
		addi s0, s0, 7
	d:	break
	`, 100)
	if ctx.Regs[isa.RegS0] != 12 {
		t.Errorf("s0 = %d, want 12", ctx.Regs[isa.RegS0])
	}
}

func TestBeqTakenAndNot(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li  t0, 5
		li  t1, 5
		beq t0, t1, eq
		li  s0, 1
	eq:	bne t0, t1, ne
		li  s1, 2
	ne:	break
	`, 100)
	if ctx.Regs[isa.RegS0] != 0 || ctx.Regs[isa.RegS1] != 2 {
		t.Errorf("s0=%d s1=%d", ctx.Regs[isa.RegS0], ctx.Regs[isa.RegS1])
	}
}

func TestSltVariants(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li    t0, -1
		li    t1, 1
		slt   s0, t0, t1     # signed: -1 < 1 -> 1
		sltu  s1, t0, t1     # unsigned: 0xffffffff < 1 -> 0
		slti  s2, t0, 0      # -1 < 0 -> 1
		sltiu s3, t1, 2      # 1 < 2 -> 1
		break
	`, 100)
	want := []struct {
		reg int
		v   isa.Word
	}{{isa.RegS0, 1}, {isa.RegS1, 0}, {isa.RegS2, 1}, {isa.RegS3, 1}}
	for _, w := range want {
		if ctx.Regs[w.reg] != w.v {
			t.Errorf("%s = %d, want %d", isa.RegName(w.reg), ctx.Regs[w.reg], w.v)
		}
	}
}

func TestLogicalImmediates(t *testing.T) {
	_, ctx := run(t, arch.R3000(), `
		li   t0, 0xF0F0
		andi s0, t0, 0x0FF0
		xori s1, t0, 0xFFFF
		break
	`, 100)
	if ctx.Regs[isa.RegS0] != 0x00F0 {
		t.Errorf("andi = %#x", ctx.Regs[isa.RegS0])
	}
	if ctx.Regs[isa.RegS1] != 0x0F0F {
		t.Errorf("xori = %#x", ctx.Regs[isa.RegS1])
	}
}

func TestStoreFaultOnUnalignedAddress(t *testing.T) {
	prog, _ := asm.Assemble("li a0, 0x10002\nsw t0, 0(a0)\nbreak")
	m := New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	ctx := &Context{PC: prog.TextBase}
	var ev Event
	for i := 0; i < 10; i++ {
		if ev = m.Step(ctx); ev.Kind != EventNone {
			break
		}
	}
	if ev.Kind != EventFault || ev.Fault.Kind != FaultUnaligned {
		t.Fatalf("event = %+v", ev)
	}
}

func TestIllegalSpecialFunct(t *testing.T) {
	m := New(arch.R3000())
	m.Mem.Poke(0x1000, isa.Encode(isa.Inst{Op: isa.OpSpecial, Funct: 0x3E}))
	ctx := &Context{PC: 0x1000}
	if ev := m.Step(ctx); ev.Kind != EventFault || ev.Fault.Kind != FaultIllegal {
		t.Fatalf("event = %+v", ev)
	}
}

func TestIllegalPrimaryOpcode(t *testing.T) {
	m := New(arch.R3000())
	m.Mem.Poke(0x1000, 0x3F<<26)
	ctx := &Context{PC: 0x1000}
	if ev := m.Step(ctx); ev.Kind != EventFault || ev.Fault.Kind != FaultIllegal {
		t.Fatalf("event = %+v", ev)
	}
}

// coherenceStub is a CoherenceHook that prices nothing.
type coherenceStub struct{}

func (coherenceStub) Access(uint32, bool) (uint64, bool) { return 0, false }

// machineResetFields classify every Machine field by what Reset does:
// true for a field whose allocation it keeps (emptied), false for one
// that starts over as NewWithMemory builds it. A new field in neither
// fails TestMachineResetMatchesNew.
var machineResetFields = map[string]bool{
	"Mem": false, "Profile": false, "Stats": false, "Coherence": false,
	"resValid": false, "resAddr": false,
	"wb": true,
}

// TestMachineResetMatchesNew dirties every Machine field, resets the
// machine onto another profile and memory, and requires each field as
// NewWithMemory builds it, with the write buffer's array kept.
func TestMachineResetMatchesNew(t *testing.T) {
	typ := reflect.TypeOf(Machine{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := machineResetFields[typ.Field(i).Name]; !ok {
			t.Errorf("field Machine.%s is neither reset nor reused", typ.Field(i).Name)
		}
	}
	m := NewWithMemory(arch.R3000(), NewMemory())
	m.Mem.Poke(0x1000, 1)
	m.Stats.Cycles, m.Coherence = 9, coherenceStub{}
	m.wb = append(m.wb, 1, 2, 3)
	m.resValid, m.resAddr = true, 0x40
	p, mem := arch.I860(), NewMemory()
	fresh := NewWithMemory(p, mem)
	field := func(m *Machine, i int) any {
		f := reflect.ValueOf(m).Elem().Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
	}
	for i := 0; i < typ.NumField(); i++ {
		if reflect.DeepEqual(field(m, i), field(fresh, i)) {
			t.Errorf("field Machine.%s is not dirty: the check of its reset is vacuous", typ.Field(i).Name)
		}
	}
	wb := &m.wb[0]
	m.Reset(p, mem)
	for i := 0; i < typ.NumField(); i++ {
		got, want := field(m, i), field(fresh, i)
		if machineResetFields[typ.Field(i).Name] {
			if n := reflect.ValueOf(got).Len(); n != 0 {
				t.Errorf("Machine.%s holds %d entries after Reset, want none", typ.Field(i).Name, n)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after Reset, Machine.%s = %#v, want %#v", typ.Field(i).Name, got, want)
		}
	}
	if cap(m.wb) == 0 || &m.wb[:1][0] != wb {
		t.Error("Reset dropped the write buffer's array")
	}
}

// Every checker schedule allocates machines: Machine must stay in the
// 192-byte malloc size class, so per-machine tables belong on the shared
// arch.Profile.
func TestMachineFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Machine{}); size > 192 {
		t.Errorf("unsafe.Sizeof(Machine{}) = %d, want <= 192", size)
	}
}

// Present reports whether the page containing addr is present.
func (m *Memory) Present(addr uint32) bool {
	return !m.notPresent[addr>>PageShift]
}

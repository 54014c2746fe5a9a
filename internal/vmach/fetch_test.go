package vmach

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/isa"
)

// The fetch path (Memory.fetch and the data page cache) must be invisible:
// each test below pins one hazard of the fast path and fails if the flush
// or tag check guarding it is removed.

const (
	fetchText = uint32(0x1000)
	fetchData = uint32(0x10000)
)

// loadText assembles src at fetchText, copies it into m and installs its
// predecoded table, as kernel.Load does.
func loadText(t *testing.T, m *Memory, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if prog.TextBase != fetchText {
		t.Fatalf("text base %#x, want %#x", prog.TextBase, fetchText)
	}
	m.LoadProgramWords(prog.TextBase, prog.Text)
	m.SetText(prog.TextBase, prog.Predecoded())
	return prog
}

func mustStep(t *testing.T, m *Machine, ctx *Context) {
	t.Helper()
	if ev := m.Step(ctx); ev.Kind != EventNone {
		t.Fatalf("step at pc=%#x: unexpected event %+v", ctx.PC, ev)
	}
}

func wantFault(t *testing.T, ev Event, kind FaultKind, addr uint32) {
	t.Helper()
	if ev.Kind != EventFault || ev.Fault.Kind != kind || ev.Fault.Addr != addr {
		t.Fatalf("event %+v, want %v at %#x", ev, kind, addr)
	}
}

// A store over the next instruction must execute the stored word, not the
// predecoded entry for the old one.
func TestStoreOverNextInstruction(t *testing.T) {
	m := New(arch.R3000())
	loadText(t, m.Mem, `
		sw   t1, 0(t0)
		addi t2, zero, 1
		break
	`)
	ctx := &Context{PC: fetchText}
	ctx.Regs[isa.RegT0] = fetchText + 4
	ctx.Regs[isa.RegT1] = isa.Encode(isa.Addi(isa.RegT2, isa.RegZero, 7))
	mustStep(t, m, ctx)
	mustStep(t, m, ctx)
	if got := ctx.Regs[isa.RegT2]; got != 7 {
		t.Fatalf("t2 = %d, want 7 from the stored instruction", got)
	}
}

// Evicting the code page under a warm fetch cache must still fault the
// next fetch and count the page fault.
func TestEvictCodePageUnderWarmFetchCache(t *testing.T) {
	m := New(arch.R3000())
	loadText(t, m.Mem, `
		addi t2, zero, 1
		addi t2, t2, 1
		break
	`)
	ctx := &Context{PC: fetchText}
	mustStep(t, m, ctx)
	m.Mem.SetPresent(fetchText, false)
	wantFault(t, m.Step(ctx), FaultNotPresent, fetchText+4)
	if m.Mem.PageFaults != 1 || ctx.Regs[isa.RegT2] != 1 || ctx.PC != fetchText+4 {
		t.Fatalf("page faults %d, t2 %d, pc %#x; want 1, 1, %#x",
			m.Mem.PageFaults, ctx.Regs[isa.RegT2], ctx.PC, fetchText+4)
	}
	m.Mem.SetPresent(fetchText, true)
	mustStep(t, m, ctx)
	if ctx.Regs[isa.RegT2] != 2 {
		t.Fatalf("t2 = %d after re-presenting the page, want 2", ctx.Regs[isa.RegT2])
	}
}

// Evicting a data page after a load must fault the next load and the next
// store to it.
func TestEvictDataPageAfterLoad(t *testing.T) {
	m := New(arch.R3000())
	loadText(t, m.Mem, `
		lw   t1, 0(t0)
		lw   t2, 4(t0)
		sw   t1, 8(t0)
		break
	`)
	m.Mem.Poke(fetchData, 5)
	ctx := &Context{PC: fetchText}
	ctx.Regs[isa.RegT0] = fetchData
	mustStep(t, m, ctx)
	m.Mem.SetPresent(fetchData, false)
	wantFault(t, m.Step(ctx), FaultNotPresent, fetchData+4)
	ctx.PC += 4 // skip to the store
	wantFault(t, m.Step(ctx), FaultNotPresent, fetchData+8)
	if m.Mem.PageFaults != 2 || m.Stats.Loads != 1 || m.Stats.Stores != 0 {
		t.Fatalf("page faults %d, loads %d, stores %d; want 2, 1, 0",
			m.Mem.PageFaults, m.Stats.Loads, m.Stats.Stores)
	}
	if got := m.Mem.Peek(fetchData + 8); got != 0 {
		t.Fatalf("faulting store wrote %d", got)
	}
}

// Restoring an image whose text differs from the running program must
// execute the restored text.
func TestRestoreDifferentText(t *testing.T) {
	m := New(arch.R3000())
	loadText(t, m.Mem, "addi t2, zero, 1\nbreak\n")
	img := m.Mem.Capture()
	loadText(t, m.Mem, "addi t2, zero, 2\nbreak\n")
	ctx := &Context{PC: fetchText}
	mustStep(t, m, ctx)
	if ctx.Regs[isa.RegT2] != 2 {
		t.Fatalf("t2 = %d before restore, want 2", ctx.Regs[isa.RegT2])
	}
	m.Mem.Restore(img)
	ctx.PC = fetchText
	mustStep(t, m, ctx)
	if ctx.Regs[isa.RegT2] != 1 {
		t.Fatalf("t2 = %d after restore, want 1 from the restored text", ctx.Regs[isa.RegT2])
	}
}

// An unaligned PC or data address on a cached page must still raise
// FaultUnaligned.
func TestUnalignedUnderWarmCaches(t *testing.T) {
	m := New(arch.R3000())
	loadText(t, m.Mem, `
		lw   t1, 0(t0)
		lw   t2, 1(t0)
		sw   t1, 2(t0)
		break
	`)
	ctx := &Context{PC: fetchText}
	ctx.Regs[isa.RegT0] = fetchData
	mustStep(t, m, ctx)
	wantFault(t, m.Step(ctx), FaultUnaligned, fetchData+1)
	ctx.PC += 4
	wantFault(t, m.Step(ctx), FaultUnaligned, fetchData+2)
	ctx.PC = fetchText + 2
	wantFault(t, m.Step(ctx), FaultUnaligned, fetchText+2)
	if m.Mem.PageFaults != 0 {
		t.Fatalf("page faults %d, want 0", m.Mem.PageFaults)
	}
}

// A load from a never-touched page allocates it, so Capture — and with it
// every mcheck state hash — sees the page exactly as before the cache.
func TestLoadFromUntouchedPageAllocates(t *testing.T) {
	m := New(arch.R3000())
	loadText(t, m.Mem, `
		lw   t1, 0(t0)
		lw   t2, 0(t3)
		break
	`)
	untouched := uint32(0x7000_0000)
	ctx := &Context{PC: fetchText}
	ctx.Regs[isa.RegT0] = fetchData
	ctx.Regs[isa.RegT3] = untouched
	mustStep(t, m, ctx)
	mustStep(t, m, ctx)
	var pns []uint32
	for _, p := range m.Mem.Capture().Pages {
		pns = append(pns, p.PN)
	}
	want := []uint32{fetchText >> PageShift, fetchData >> PageShift, untouched >> PageShift}
	if !reflect.DeepEqual(pns, want) {
		t.Fatalf("captured pages %#x, want %#x", pns, want)
	}
}

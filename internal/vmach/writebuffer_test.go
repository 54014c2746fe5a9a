package vmach

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/isa"
)

// wbProfile is an R3000 variant with single-cycle stores backed by a
// 2-entry write buffer draining one entry per 10 cycles.
func wbProfile() *arch.Profile {
	p := arch.R3000().WithWriteBuffer(2, 10)
	p.ClassCycles[isa.ClassStore] = 1
	return p
}

func runWB(t *testing.T, p *arch.Profile, src string) *Machine {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	ctx := &Context{PC: prog.TextBase}
	for i := 0; i < 10000; i++ {
		if ev := m.Step(ctx); ev.Kind == EventBreak {
			return m
		} else if ev.Kind != EventNone {
			t.Fatalf("event %+v", ev)
		}
	}
	t.Fatal("no halt")
	return nil
}

func TestWriteBufferStallsOnBursts(t *testing.T) {
	// Six back-to-back stores against a depth-2 buffer must stall.
	m := runWB(t, wbProfile(), `
		la a0, x
		sw t0, 0(a0)
		sw t0, 4(a0)
		sw t0, 8(a0)
		sw t0, 12(a0)
		sw t0, 16(a0)
		sw t0, 20(a0)
		break
		.data
	x:	.space 32
	`)
	if m.Stats.WriteStalls == 0 {
		t.Error("no write-buffer stalls on a store burst")
	}
	if m.Stats.WriteStallCycles == 0 {
		t.Error("stalls recorded but no cycles charged")
	}
}

func TestWriteBufferAbsorbsSpacedStores(t *testing.T) {
	// Stores separated by plenty of ALU work drain without stalling.
	src := "\tla a0, x\n"
	for i := 0; i < 6; i++ {
		src += "\tsw t0, 0(a0)\n"
		for j := 0; j < 15; j++ {
			src += "\taddi t1, t1, 1\n"
		}
	}
	src += "\tbreak\n\t.data\nx: .word 0\n"
	m := runWB(t, wbProfile(), src)
	if m.Stats.WriteStalls != 0 {
		t.Errorf("unexpected stalls: %d", m.Stats.WriteStalls)
	}
}

func TestWriteBufferDisabledByDefault(t *testing.T) {
	m := runWB(t, arch.R3000(), `
		la a0, x
		sw t0, 0(a0)
		sw t0, 4(a0)
		sw t0, 8(a0)
		sw t0, 12(a0)
		break
		.data
	x:	.space 16
	`)
	if m.Stats.WriteStalls != 0 {
		t.Error("stalls with write buffer disabled")
	}
}

func TestWithWriteBufferCopies(t *testing.T) {
	base := arch.R3000()
	mod := base.WithWriteBuffer(4, 8)
	if base.WriteBufferDepth != 0 {
		t.Error("WithWriteBuffer mutated the receiver")
	}
	if mod.WriteBufferDepth != 4 || mod.WriteBufferDrainCycles != 8 {
		t.Error("WithWriteBuffer did not apply")
	}
}

func TestWriteBufferMakesStoreHeavyCodeSlower(t *testing.T) {
	// The §5.1 claim at instruction level: a store-heavy sequence pays
	// more under a shallow write buffer than a load-heavy one.
	storeHeavy := `
		la a0, x
		li s0, 50
	loop:
		sw t0, 0(a0)
		sw t0, 4(a0)
		sw t0, 8(a0)
		sw t0, 12(a0)
		sw t0, 16(a0)
		addi s0, s0, -1
		bne s0, zero, loop
		break
		.data
	x:	.space 32
	`
	flat := runWB(t, arch.R3000(), storeHeavy).Stats.Cycles
	buffered := runWB(t, wbProfile(), storeHeavy).Stats.Cycles
	if buffered <= flat {
		t.Errorf("buffered %d cycles not > flat %d", buffered, flat)
	}
}

package vmach_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
)

// BenchmarkMachineStep is the host cost of one guest instruction (ns/op is
// ns per Step): one worker of the designated-sequence MutexCounterProgram
// runs its acquire/increment/release loop on a bare machine, fetching
// through the program's predecoded text as a kernel-loaded program does.
func BenchmarkMachineStep(b *testing.B) {
	prog, err := asm.Assemble(guest.MutexCounterProgram(guest.MechDesignated, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	m := vmach.New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	m.Mem.SetText(prog.TextBase, prog.Predecoded())
	worker := prog.MustSymbol("worker")
	var ctx vmach.Context
	restart := func() {
		ctx = vmach.Context{PC: worker}
		ctx.Regs[isa.RegA0] = 1 << 30 // iterations
		ctx.Regs[isa.RegSP] = guest.StackTop(1)
	}
	restart()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := m.Step(&ctx); ev.Kind != vmach.EventNone {
			restart() // the worker's exit syscall
		}
	}
}

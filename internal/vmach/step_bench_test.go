package vmach_test

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
)

// counterWorker loads one worker of the designated-sequence
// MutexCounterProgram onto a bare machine, with the program's predecoded
// text installed as a kernel-loaded program has it when predecoded is
// set, and returns the machine and the worker's start context for iters
// iterations of its acquire/increment/release loop. Uncontended, the
// worker makes no syscall until its exit.
func counterWorker(tb testing.TB, predecoded bool, iters uint32) (*vmach.Machine, vmach.Context) {
	tb.Helper()
	prog, err := asm.Assemble(guest.MutexCounterProgram(guest.MechDesignated, 1, 1))
	if err != nil {
		tb.Fatal(err)
	}
	m := vmach.New(arch.R3000())
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.LoadProgramWords(prog.DataBase, prog.Data)
	if predecoded {
		m.Mem.SetText(prog.TextBase, prog.Predecoded())
	}
	ctx := vmach.Context{PC: prog.MustSymbol("worker")}
	ctx.Regs[isa.RegA0] = iters
	ctx.Regs[isa.RegSP] = guest.StackTop(1)
	return m, ctx
}

// BenchmarkMachineStep is the host cost of one guest instruction (ns/op is
// ns per Step): one worker of the designated-sequence MutexCounterProgram
// runs its acquire/increment/release loop on a bare machine, fetching
// through the program's predecoded text as a kernel-loaded program does.
func BenchmarkMachineStep(b *testing.B) {
	m, start := counterWorker(b, true, 1<<30)
	ctx := start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := m.Step(&ctx); ev.Kind != vmach.EventNone {
			ctx = start // the worker's exit syscall
		}
	}
}

// One long Run batch allocates nothing, whether it fetches through the
// predecoded text or, with no table installed, decodes every word itself:
// the entry Run decodes into stays on its stack.
func TestRunBatchAllocatesNothing(t *testing.T) {
	for _, predecoded := range []bool{true, false} {
		m, start := counterWorker(t, predecoded, 500)
		var ev vmach.Event
		var n uint64
		allocs := testing.AllocsPerRun(10, func() {
			ctx := start
			ev, n = m.Run(&ctx, math.MaxUint64, math.MaxUint64)
		})
		if ev.Kind != vmach.EventSyscall || n < 5000 {
			t.Fatalf("predecoded=%v: batch ended with %+v after %d quiet instructions, want the exit syscall after thousands", predecoded, ev, n)
		}
		if allocs != 0 {
			t.Errorf("predecoded=%v: a Run batch of %d instructions allocates %v times, want 0", predecoded, n+1, allocs)
		}
	}
}

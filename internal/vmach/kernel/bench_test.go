package kernel

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
)

// BenchmarkKernelRun is the host cost of a guest instruction through
// Kernel.Run under a seeded chaos plan, in the benchmark's vm-ras shape:
// one op is one run of MutexCounterProgram, 4 workers x 3000 iterations
// at quantum 300 under chaos.NewPlan(seed, 0.25) with the extending
// watchdog, rotating the designated, registered and emulated mechanisms.
// ns/instr is the whole kernel's time, quiet batches and fault probes
// included, per retired instruction.
func BenchmarkKernelRun(b *testing.B) {
	mechs := []struct {
		mech  guest.Mechanism
		strat func() Strategy
		at    CheckTime
	}{
		{guest.MechDesignated, func() Strategy { return &Designated{} }, CheckAtResume},
		{guest.MechRegistered, func() Strategy { return &Registration{} }, CheckAtSuspend},
		{guest.MechEmul, func() Strategy { return NoRecovery{} }, CheckAtSuspend},
	}
	progs := make([]*asm.Program, len(mechs))
	for i, m := range mechs {
		progs[i] = guest.Assemble(guest.MutexCounterProgram(m.mech, 4, 3000))
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, prog := mechs[i%len(mechs)], progs[i%len(mechs)]
		k := Boot(Config{Strategy: m.strat(), CheckAt: m.at, Quantum: 300,
			Faults:   chaos.NewPlan(chaos.Derive(1, uint64(i)), 0.25),
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend}},
			prog, guest.StackTop(0))
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += k.M.Stats.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

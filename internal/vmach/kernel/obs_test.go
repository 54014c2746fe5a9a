package kernel

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/obs"
)

// bootTraced runs the registration mutex-counter workload that is known to
// produce restarts and preemptions (quantum 53 lands inside the registered
// sequence), with the given observability wiring installed.
func bootTraced(t *testing.T, wire func(k *Kernel, prog *asm.Program)) *Kernel {
	t.Helper()
	src := guest.MutexCounterProgram(guest.MechRegistered, 2, 60)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Strategy: &Registration{}, Quantum: 53})
	k.Load(prog)
	wire(k, prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKernelBusMetricsMatchStats(t *testing.T) {
	pm := obs.NewPaperMetrics(nil)
	k := bootTraced(t, func(k *Kernel, _ *asm.Program) { k.Tracer = pm })

	if k.Stats.Restarts == 0 || k.Stats.Preemptions == 0 {
		t.Fatalf("workload produced no restarts/preemptions (restarts=%d preempt=%d)",
			k.Stats.Restarts, k.Stats.Preemptions)
	}
	// The event-derived counters must equal the kernel's own statistics
	// exactly — the bus sees every trace call the stats count.
	if got := pm.Restarts.Value(); got != k.Stats.Restarts {
		t.Errorf("restarts_total = %d, stats = %d", got, k.Stats.Restarts)
	}
	if got := pm.Preemptions.Value(); got != k.Stats.Preemptions {
		t.Errorf("preemptions_total = %d, stats = %d", got, k.Stats.Preemptions)
	}
	if got := pm.Syscalls.Value(); got != k.Stats.Syscalls {
		t.Errorf("syscalls_total = %d, stats = %d", got, k.Stats.Syscalls)
	}
	if pm.Dispatches.Value() == 0 {
		t.Error("metrics saw no dispatches")
	}
}

func TestKernelBusExportsValidChromeTrace(t *testing.T) {
	cap := &obs.Capture{}
	bootTraced(t, func(k *Kernel, _ *asm.Program) { k.Tracer = cap })

	data, err := obs.ChromeTrace(cap.Events())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatalf("kernel trace fails validation: %v", err)
	}
}

func TestKernelCycleProfiler(t *testing.T) {
	prof := obs.NewCycleProfiler()
	k := bootTraced(t, func(k *Kernel, prog *asm.Program) { k.AttachProfiler(prof, prog) })

	if prof.Samples() == 0 {
		t.Fatal("profiler saw no retired instructions")
	}
	// Every cycle the machine spent is attributed somewhere: retired guest
	// instructions plus [kernel] time.
	if prof.Cycles() != k.M.Stats.Cycles {
		t.Errorf("attributed %d cycles, machine ran %d", prof.Cycles(), k.M.Stats.Cycles)
	}
	if prof.FlatCycles("[kernel]") == 0 {
		t.Error("no kernel time attributed")
	}
	folded := prof.Folded()
	if !strings.Contains(folded, ";") {
		t.Errorf("no call stacks tracked in folded output:\n%s", folded)
	}
	// The mutex workload spends time inside the acquire path, and main's
	// cumulative time includes its callees.
	if prof.CumCycles("main") < prof.FlatCycles("main") {
		t.Error("cum < flat for main")
	}
	if rep := prof.Report(5); !strings.Contains(rep, "flat(cyc)") {
		t.Errorf("report header missing:\n%s", rep)
	}
}

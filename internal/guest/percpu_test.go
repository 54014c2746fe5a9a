package guest

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// Every percpu program must assemble, and the ranges the harnesses
// register must pass the kernel's restartability verifier.
func TestPerCPUProgramsAssembleAndVerify(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		ranges func() [][2]uint32
	}{
		{"server-percpu", ServerProgram(ServerPerCPU, 4), nil},
		{"server-racy", ServerProgram(ServerRacyDrain, 2), nil},
		{"server-mutex", ServerProgram(ServerMutex, 4), nil},
		{"freelist", FreeListProgram(3), nil},
	}
	for _, c := range cases {
		prog := Assemble(c.src)
		sys := smp.New(smp.Config{CPUs: 1, NewStrategy: func() kernel.Strategy {
			return kernel.NewMultiRegistration()
		}})
		sys.Load(prog)
		k := sys.CPUs[0]
		var ranges [][2]uint32
		switch c.name {
		case "server-percpu", "server-racy":
			ranges = ServerSequenceRanges(prog)
		case "freelist":
			ranges = FreeListSequenceRanges(prog)
		}
		for _, r := range ranges {
			if err := k.VerifySequence(r[0], r[1]); err != nil {
				t.Errorf("%s: range [%#x,+%d): %v", c.name, r[0], r[1], err)
			}
		}
	}
}

// runServer spawns one worker plus `clients` clients per CPU (percpu
// and racy variants) or per machine with per-CPU distribution (mutex)
// and returns the per-CPU served counts plus the system.
func runServer(t *testing.T, v ServerVariant, cpus, clientsPerCPU, iters int) []uint64 {
	t.Helper()
	sys := smp.New(smp.Config{CPUs: cpus, NewStrategy: func() kernel.Strategy {
		return kernel.NewMultiRegistration()
	}})
	prog := Assemble(ServerProgram(v, cpus))
	sys.Load(prog)
	if v != ServerMutex {
		for _, k := range sys.CPUs {
			for _, r := range ServerSequenceRanges(prog) {
				if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	workerArg := clientsPerCPU
	if v == ServerMutex {
		workerArg = clientsPerCPU * cpus
	}
	worker, client := prog.MustSymbol("worker"), prog.MustSymbol("client")
	for cpu := 0; cpu < cpus; cpu++ {
		sys.Spawn(cpu, worker, StackTop(smp.GlobalID(cpu, 0)), isa.Word(workerArg))
		for c := 0; c < clientsPerCPU; c++ {
			sys.Spawn(cpu, client, StackTop(smp.GlobalID(cpu, c+1)), isa.Word(iters))
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s/%dcpu: %v", v, cpus, err)
	}
	served := make([]uint64, cpus)
	if v == ServerMutex {
		served[0] = uint64(sys.Mem.Peek(prog.MustSymbol("gblock") + serverOffServed))
		return served
	}
	base := prog.MustSymbol("pcb")
	for cpu := 0; cpu < cpus; cpu++ {
		served[cpu] = uint64(sys.Mem.Peek(base + uint32(cpu*64) + serverOffServed))
	}
	return served
}

func TestServerPerCPUServesEveryRequest(t *testing.T) {
	for _, cpus := range []int{1, 2, 4} {
		const clients, iters = 3, 20
		served := runServer(t, ServerPerCPU, cpus, clients, iters)
		for cpu, s := range served {
			if s != clients*iters {
				t.Errorf("%d CPUs: cpu %d served %d, want %d", cpus, cpu, s, clients*iters)
			}
		}
	}
}

func TestServerMutexServesEveryRequest(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		const clients, iters = 2, 15
		served := runServer(t, ServerMutex, cpus, clients, iters)
		if want := uint64(cpus * clients * iters); served[0] != want {
			t.Errorf("%d CPUs: served %d, want %d", cpus, served[0], want)
		}
	}
}

// Undisturbed (round-robin, no forced preemption) the racy drain happens
// to be safe: a producer is never preempted between reserving a slot and
// publishing it. The bug only opens under forced preemption — which is
// exactly what the mcheck percpu-queue model proves; here we pin that
// the undisturbed run is clean so the model's violation is attributable
// to the schedule, not the workload.
func TestServerRacyDrainCleanWhenUndisturbed(t *testing.T) {
	const clients, iters = 2, 10
	served := runServer(t, ServerRacyDrain, 1, clients, iters)
	if served[0] != clients*iters {
		t.Errorf("undisturbed racy run served %d, want %d", served[0], clients*iters)
	}
}

// The percpu request path must execute zero remote references — the
// whole claim. The mutex baseline on the same workload must execute many.
func TestServerPerCPURequestPathHasNoRMRs(t *testing.T) {
	for _, mode := range []smp.Mode{smp.CC, smp.DSM} {
		sys := smp.New(smp.Config{CPUs: 2, Mode: mode, NewStrategy: func() kernel.Strategy {
			return kernel.NewMultiRegistration()
		}})
		prog := Assemble(ServerProgram(ServerPerCPU, 2))
		sys.Load(prog)
		for _, k := range sys.CPUs {
			for _, r := range ServerSequenceRanges(prog) {
				if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		worker, client := prog.MustSymbol("worker"), prog.MustSymbol("client")
		for cpu := 0; cpu < 2; cpu++ {
			sys.Spawn(cpu, worker, StackTop(smp.GlobalID(cpu, 0)), 2)
			for c := 0; c < 2; c++ {
				sys.Spawn(cpu, client, StackTop(smp.GlobalID(cpu, c+1)), 10)
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if rmrs := sys.TotalRMRs(); rmrs != 0 {
			t.Errorf("%s: percpu server executed %d RMRs, want 0", mode, rmrs)
		}
	}
}

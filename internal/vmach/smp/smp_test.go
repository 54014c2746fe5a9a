package smp

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach/kernel"
)

// buildCounter assembles the SMP counter workload and spawns `workers`
// threads per CPU, each doing `iters` passages.
func buildCounter(cfg Config, lock guest.SMPLock, workers, iters int) (*System, uint32) {
	s := New(cfg)
	prog := guest.Assemble(guest.SMPCounterProgram(lock, len(s.CPUs)))
	s.Load(prog)
	entry := prog.MustSymbol("worker")
	for cpu := range s.CPUs {
		for w := 0; w < workers; w++ {
			s.Spawn(cpu, entry, guest.StackTop(GlobalID(cpu, w)), isa.Word(iters))
		}
	}
	return s, prog.MustSymbol("counter")
}

func TestSMPMutualExclusion(t *testing.T) {
	const workers, iters = 2, 50
	for _, lock := range []guest.SMPLock{guest.SMPHybrid, guest.SMPSpin, guest.SMPLLSC} {
		for _, cpus := range []int{1, 2, 4} {
			s, counter := buildCounter(Config{CPUs: cpus}, lock, workers, iters)
			if err := s.Run(); err != nil {
				t.Fatalf("%s/%d CPUs: %v", lock, cpus, err)
			}
			want := uint32(cpus * workers * iters)
			if got := s.Mem.Peek(counter); got != want {
				t.Errorf("%s/%d CPUs: counter %d, want %d — mutual exclusion violated", lock, cpus, got, want)
			}
		}
	}
}

// TestRASOnlyAcrossCPUs is the §7 observation: a restartable atomic
// sequence arbitrates only among threads of one processor. The same
// RAS-only lock that is exact on one CPU loses updates on two.
func TestRASOnlyAcrossCPUs(t *testing.T) {
	const workers, iters = 2, 200
	one, counter := buildCounter(Config{CPUs: 1}, guest.SMPRASOnly, workers, iters)
	if err := one.Run(); err != nil {
		t.Fatalf("1 CPU: %v", err)
	}
	if got := one.Mem.Peek(counter); got != uint32(workers*iters) {
		t.Errorf("1 CPU: counter %d, want %d — RAS should be exact on a uniprocessor", got, workers*iters)
	}

	two, counter := buildCounter(Config{CPUs: 2}, guest.SMPRASOnly, workers, iters)
	if err := two.Run(); err != nil {
		t.Fatalf("2 CPUs: %v", err)
	}
	want := uint32(2 * workers * iters)
	if got := two.Mem.Peek(counter); got >= want {
		t.Errorf("2 CPUs: counter %d, want < %d — RAS-only should lose updates across CPUs", got, want)
	}
}

// TestSMPDeterminism: the round-robin interleaving is a pure function of
// the configuration, so two identical runs agree on every statistic.
func TestSMPDeterminism(t *testing.T) {
	run := func() (*System, uint32) {
		s, counter := buildCounter(Config{
			CPUs: 3,
			Faults: func(cpu int) chaos.Injector {
				return &chaos.Plan{Seed: chaos.Derive(42, uint64(cpu)), PreemptRate: 512}
			},
		}, guest.SMPHybrid, 2, 40)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s, counter
	}
	a, counter := run()
	b, _ := run()
	if got, want := a.Mem.Peek(counter), b.Mem.Peek(counter); got != want {
		t.Errorf("counter diverged: %d vs %d", got, want)
	}
	for i := range a.CPUs {
		if a.CPUs[i].M.Stats != b.CPUs[i].M.Stats {
			t.Errorf("cpu%d machine stats diverged:\n%+v\n%+v", i, a.CPUs[i].M.Stats, b.CPUs[i].M.Stats)
		}
		if a.CPUs[i].Stats != b.CPUs[i].Stats {
			t.Errorf("cpu%d kernel stats diverged:\n%+v\n%+v", i, a.CPUs[i].Stats, b.CPUs[i].Stats)
		}
	}
}

// TestRMRInvariants: a single-CPU run performs zero remote memory
// references in both counting modes; a multi-CPU run of any shared lock
// performs some.
func TestRMRInvariants(t *testing.T) {
	for _, mode := range []Mode{CC, DSM} {
		s, _ := buildCounter(Config{CPUs: 1, Mode: mode}, guest.SMPHybrid, 2, 50)
		if err := s.Run(); err != nil {
			t.Fatalf("%v 1 CPU: %v", mode, err)
		}
		if got := s.TotalRMRs(); got != 0 {
			t.Errorf("%v 1 CPU: %d RMRs, want 0 — nothing is remote on a uniprocessor", mode, got)
		}

		m, _ := buildCounter(Config{CPUs: 2, Mode: mode}, guest.SMPHybrid, 2, 50)
		if err := m.Run(); err != nil {
			t.Fatalf("%v 2 CPUs: %v", mode, err)
		}
		if got := m.TotalRMRs(); got == 0 {
			t.Errorf("%v 2 CPUs: 0 RMRs — cross-CPU lock handoffs must be remote", mode)
		}
	}
}

// TestPerCPURestartIsolation: preemptions injected on CPU 1 restart only
// CPU 1's threads — per-CPU sequence recognition never rolls back another
// processor's thread.
func TestPerCPURestartIsolation(t *testing.T) {
	s, counter := buildCounter(Config{
		CPUs: 2,
		Faults: func(cpu int) chaos.Injector {
			if cpu != 1 {
				return nil
			}
			return &chaos.Plan{Seed: 7, PreemptRate: 2048}
		},
	}, guest.SMPHybrid, 2, 100)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.CPUs[0].Stats.Restarts; got != 0 {
		t.Errorf("cpu0: %d restarts, want 0 — faults were injected on cpu1 only", got)
	}
	if got := s.CPUs[1].Stats.Restarts; got == 0 {
		t.Errorf("cpu1: 0 restarts under a 1/32-per-step preemption plan")
	}
	if got, want := s.Mem.Peek(counter), uint32(2*2*100); got != want {
		t.Errorf("counter %d, want %d — restarts must preserve mutual exclusion", got, want)
	}
}

// TestKillTargetsCPUThread: a kill routed through CPU 1's injector lands
// on a (cpu, thread) pair there; CPU 0 is untouched. The workload is
// lock-free so the survivors still finish.
func TestKillTargetsCPUThread(t *testing.T) {
	s := New(Config{CPUs: 2, Faults: func(cpu int) chaos.Injector {
		if cpu != 1 {
			return nil
		}
		return chaos.OneShot{Point: chaos.PointStep, N: 40, Action: chaos.Action{Kill: true}}
	}})
	prog := guest.Assemble(guest.EmptyLoopProgram(500))
	s.Load(prog)
	entry := prog.MustSymbol("main")
	for cpu := 0; cpu < 2; cpu++ {
		for w := 0; w < 2; w++ {
			s.Spawn(cpu, entry, guest.StackTop(GlobalID(cpu, w)))
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.CPUs[0].Stats.Kills; got != 0 {
		t.Errorf("cpu0: %d kills, want 0", got)
	}
	if got := s.CPUs[1].Stats.Kills; got != 1 {
		t.Errorf("cpu1: %d kills, want 1", got)
	}
	for _, tt := range s.CPUs[0].Threads() {
		if tt.State != kernel.StateDone {
			t.Errorf("cpu0 t%d: state %v, want done", tt.ID, tt.State)
		}
	}
	killed := 0
	for _, tt := range s.CPUs[1].Threads() {
		if tt.State == kernel.StateKilled {
			killed++
		}
	}
	if killed != 1 {
		t.Errorf("cpu1: %d killed threads, want exactly 1", killed)
	}
}

// TestKillThreadAddressing: the direct (cpu, local thread) kill API.
func TestKillThreadAddressing(t *testing.T) {
	s := New(Config{CPUs: 2})
	prog := guest.Assemble(guest.EmptyLoopProgram(500))
	s.Load(prog)
	entry := prog.MustSymbol("main")
	s.Spawn(0, entry, guest.StackTop(GlobalID(0, 0)))
	s.Spawn(1, entry, guest.StackTop(GlobalID(1, 0)))
	s.RunRounds(20)
	if err := s.KillThread(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.CPUs[1].Threads()[0].State; got != kernel.StateKilled {
		t.Errorf("cpu1 t0: state %v, want killed", got)
	}
	if got := s.CPUs[0].Threads()[0].State; got != kernel.StateDone {
		t.Errorf("cpu0 t0: state %v, want done", got)
	}
}

// TestHybridTraceHasPerCPUTracks: the event stream stamped by CPU renders
// to a valid Chrome document with one process group per CPU.
func TestHybridTraceHasPerCPUTracks(t *testing.T) {
	s, _ := buildCounter(Config{CPUs: 2}, guest.SMPHybrid, 2, 10)
	var capture obs.Capture
	s.AttachTracer(&capture)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := obs.ChromeTrace(capture.Events())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatalf("invalid chrome doc: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	if !pids[0] || !pids[1] {
		t.Errorf("want events in both CPU process groups, got pids %v", pids)
	}
}

// TestBudgetVerdict: a CPU that exceeds its cycle budget reports it.
func TestBudgetVerdict(t *testing.T) {
	s, _ := buildCounter(Config{CPUs: 2, MaxCycles: 2000}, guest.SMPHybrid, 2, 1_000_000)
	err := s.Run()
	if !errors.Is(err, kernel.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

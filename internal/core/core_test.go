package core

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/uniproc"
)

// mechanisms returns every sound mechanism for the given profile.
func mechanisms(p *arch.Profile) []Mechanism {
	ms := []Mechanism{NewRAS(), NewRASRegistered(), NewKernelEmul(p)}
	if il, err := NewInterlocked(p); err == nil {
		ms = append(ms, il)
	}
	return ms
}

func TestMechanismNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(mechanisms(arch.I486()), Unsound{})
	for _, m := range all {
		if m.Name() == "" || seen[m.Name()] {
			t.Errorf("bad or duplicate name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestTASSemanticsSingleThread(t *testing.T) {
	for _, m := range mechanisms(arch.I486()) {
		p := uniproc.New(uniproc.Config{Profile: arch.I486()})
		var w Word
		var r1, r2, r3 Word
		p.Go("main", func(e *uniproc.Env) {
			r1 = m.TestAndSet(e, &w) // free -> 0, sets
			r2 = m.TestAndSet(e, &w) // held -> 1
			m.Clear(e, &w)
			r3 = m.TestAndSet(e, &w) // free again -> 0
		})
		if err := p.Run(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r1 != 0 || r2 != 1 || r3 != 0 {
			t.Errorf("%s: TAS results %d,%d,%d want 0,1,0", m.Name(), r1, r2, r3)
		}
		if w != 1 {
			t.Errorf("%s: final word %d", m.Name(), w)
		}
	}
}

func TestFetchAndAdd(t *testing.T) {
	for _, m := range mechanisms(arch.I486()) {
		p := uniproc.New(uniproc.Config{Profile: arch.I486()})
		var w Word = 10
		var old Word
		p.Go("main", func(e *uniproc.Env) {
			old = m.FetchAndAdd(e, &w, 5)
		})
		if err := p.Run(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if old != 10 || w != 15 {
			t.Errorf("%s: FAA old=%d new=%d", m.Name(), old, w)
		}
	}
}

// counterRun exercises n threads doing iters locked increments with mech.
func counterRun(t *testing.T, p *arch.Profile, m Mechanism, q uint64, n, iters int) (Word, *uniproc.Processor) {
	t.Helper()
	proc := uniproc.New(uniproc.Config{Profile: p, Quantum: q})
	lock := NewTASLock(m)
	var counter Word
	for i := 0; i < n; i++ {
		proc.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				lock.Acquire(e)
				v := e.Load(&counter)
				e.ChargeALU(1)
				e.Store(&counter, v+1)
				lock.Release(e)
			}
		})
	}
	if err := proc.Run(); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return counter, proc
}

func TestMutualExclusionAllMechanisms(t *testing.T) {
	const n, iters = 4, 200
	prof := arch.I486()
	for _, m := range mechanisms(prof) {
		for _, q := range []uint64{29, 83, 211, 50000} {
			got, _ := counterRun(t, prof, m, q, n, iters)
			if got != n*iters {
				t.Errorf("%s q=%d: counter = %d, want %d", m.Name(), q, got, n*iters)
			}
		}
	}
}

func TestUnsoundLosesUpdates(t *testing.T) {
	const n, iters = 4, 300
	lost := false
	for q := uint64(13); q <= 97 && !lost; q += 6 {
		got, _ := counterRun(t, arch.R3000(), Unsound{}, q, n, iters)
		if got < n*iters {
			lost = true
		}
	}
	if !lost {
		t.Error("unsound mechanism never lost an update")
	}
}

func TestRASRestartsOccurAndAreCounted(t *testing.T) {
	const n, iters = 4, 400
	_, proc := counterRun(t, arch.R3000(), NewRAS(), 31, n, iters)
	if proc.Stats.Restarts == 0 {
		t.Error("no restarts under a 31-cycle quantum")
	}
	if proc.Stats.Restarts > proc.Stats.Suspensions {
		t.Error("more restarts than suspensions")
	}
}

func TestRegisteredVariantChargesLinkage(t *testing.T) {
	// The branch variant must cost strictly more cycles than the inline
	// variant on the same workload (Table 1's 0.64 vs 0.51 us).
	run := func(m Mechanism) uint64 {
		proc := uniproc.New(uniproc.Config{Quantum: 1 << 40})
		lock := NewTASLock(m)
		var counter Word
		proc.Go("main", func(e *uniproc.Env) {
			for i := 0; i < 1000; i++ {
				lock.Acquire(e)
				v := e.Load(&counter)
				e.ChargeALU(1)
				e.Store(&counter, v+1)
				lock.Release(e)
			}
		})
		if err := proc.Run(); err != nil {
			t.Fatal(err)
		}
		return proc.Clock()
	}
	inline, branch := run(NewRAS()), run(NewRASRegistered())
	if branch <= inline {
		t.Errorf("branch (%d cycles) not slower than inline (%d)", branch, inline)
	}
}

func TestEmulationIsSlowestSoftwareMechanism(t *testing.T) {
	run := func(m Mechanism) uint64 {
		got, proc := counterRun(t, arch.R3000(), m, 1<<40, 1, 500)
		if got != 500 {
			t.Fatalf("%s: counter %d", m.Name(), got)
		}
		return proc.Clock()
	}
	ras := run(NewRAS())
	emul := run(NewKernelEmul(arch.R3000()))
	if emul < ras*3 {
		t.Errorf("emulation (%d) not >> RAS (%d)", emul, ras)
	}
}

func TestInterlockedRequiresHardware(t *testing.T) {
	if _, err := NewInterlocked(arch.R3000()); err == nil {
		t.Error("interlocked constructed on R3000")
	}
	if _, err := NewInterlocked(nil); err == nil {
		t.Error("interlocked constructed on nil profile")
	}
	if _, err := NewInterlocked(arch.SPARC()); err != nil {
		t.Errorf("interlocked failed on SPARC: %v", err)
	}
}

func TestHoldupsCountedOnContention(t *testing.T) {
	// A fixed quantum can phase-lock with the loop period and never land
	// inside the critical section; jitter breaks the phase lock.
	const n, iters = 4, 200
	proc := uniproc.New(uniproc.Config{Quantum: 131, JitterSeed: 7})
	lock := NewTASLock(NewRAS())
	var counter Word
	for i := 0; i < n; i++ {
		proc.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				lock.Acquire(e)
				v := e.Load(&counter)
				e.ChargeALU(1)
				e.Store(&counter, v+1)
				lock.Release(e)
			}
		})
	}
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != n*iters {
		t.Fatalf("counter = %d", counter)
	}
	if proc.HoldupCount() == 0 {
		t.Error("no holdups recorded under contention")
	}
}

// Property: FetchAndAdd under concurrency sums exactly, for any quantum.
func TestQuickFetchAndAddExact(t *testing.T) {
	f := func(q16 uint16) bool {
		q := uint64(q16)%500 + 17
		proc := uniproc.New(uniproc.Config{Quantum: q})
		m := NewRAS()
		var w Word
		const n, iters = 3, 50
		for i := 0; i < n; i++ {
			proc.Go("adder", func(e *uniproc.Env) {
				for j := 0; j < iters; j++ {
					m.FetchAndAdd(e, &w, 1)
				}
			})
		}
		if err := proc.Run(); err != nil {
			return false
		}
		return w == n*iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

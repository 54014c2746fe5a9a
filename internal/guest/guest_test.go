package guest

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

var allMechanisms = []Mechanism{
	MechNone, MechRegistered, MechDesignated, MechEmul, MechInterlocked,
	MechLockB, MechUserLevel, MechLamportA, MechLamportB, MechTaosMutex,
}

func TestMechanismStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range allMechanisms {
		s := m.String()
		if s == "" || s == "unknown" {
			t.Errorf("mechanism %d: bad string %q", m, s)
		}
		if seen[s] {
			t.Errorf("duplicate mechanism name %q", s)
		}
		seen[s] = true
	}
	if Mechanism(99).String() != "unknown" {
		t.Error("out-of-range mechanism should be unknown")
	}
}

func TestStackTop(t *testing.T) {
	if StackTop(0) != StackBase+0xFF0 {
		t.Errorf("StackTop(0) = %#x", StackTop(0))
	}
	if StackTop(3)-StackTop(2) != StackSize {
		t.Error("stacks not one page apart")
	}
	if StackTop(1)%4 != 0 {
		t.Error("stack top not word-aligned")
	}
}

func TestAllMutexCounterProgramsAssemble(t *testing.T) {
	for _, m := range allMechanisms {
		src := MutexCounterProgram(m, 4, 100)
		if _, err := asm.Assemble(src); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestAllMicrobenchProgramsAssemble(t *testing.T) {
	for _, m := range allMechanisms {
		src := MicrobenchProgram(m, 1000)
		if _, err := asm.Assemble(src); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestAllAcquireReleaseProgramsAssemble(t *testing.T) {
	for _, m := range allMechanisms {
		src := AcquireReleaseProgram(m, 1000)
		if _, err := asm.Assemble(src); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestAuxProgramsAssemble(t *testing.T) {
	for _, src := range []string{EmptyLoopProgram(100), LinkageProgram(100)} {
		if _, err := asm.Assemble(src); err != nil {
			t.Error(err)
		}
	}
}

func TestAssembleHelperPanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Assemble did not panic on bad source")
		}
	}()
	Assemble("bogus instruction")
}

func TestAssembleHelperOK(t *testing.T) {
	p := Assemble(EmptyLoopProgram(10))
	if _, ok := p.SymbolAddr("main"); !ok {
		t.Error("main symbol missing")
	}
}

// Each source is assembled once: a repeated call returns the same
// program and allocates nothing, from any number of goroutines.
func TestAssembleMemoizesBySource(t *testing.T) {
	srcs := []string{EmptyLoopProgram(11), PersistentCounterProgram(2, 5), EmptyLoopProgram(12)}
	want := make([]*asm.Program, len(srcs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range srcs {
				Assemble(srcs[(g+i)%len(srcs)])
			}
		}()
	}
	wg.Wait()
	for i, src := range srcs {
		want[i] = Assemble(src)
	}
	for i, src := range srcs {
		if p := Assemble(src); p != want[i] {
			t.Errorf("source %d assembled twice", i)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Assemble(srcs[1]) }); n != 0 {
		t.Errorf("a repeated Assemble allocates %v times, want 0", n)
	}
}

// The registered sequence must be exactly three words (lw/ori/sw) ending
// with the store, with the return jump outside the registered range — the
// property that makes rollback sound (see Figure 4 discussion).
func TestRegisteredSequenceShape(t *testing.T) {
	p := Assemble(MutexCounterProgram(MechRegistered, 1, 1))
	begin := p.MustSymbol("ras_begin")
	end := p.MustSymbol("ras_end")
	if end-begin != 12 {
		t.Fatalf("registered sequence is %d bytes, want 12", end-begin)
	}
	idx := (begin - p.TextBase) / 4
	ops := []uint32{isa.OpLW, isa.OpORI, isa.OpSW}
	for i, want := range ops {
		got := isa.Decode(p.Text[idx+uint32(i)])
		if got.Op != want {
			t.Errorf("word %d: op %#x, want %#x", i, got.Op, want)
		}
	}
	// The word after the sequence is the return jump.
	after := isa.Decode(p.Text[idx+3])
	if after.Op != isa.OpSpecial || after.Funct != isa.FnJR {
		t.Errorf("instruction after sequence = %v, want jr", after)
	}
}

// The designated sequence must match the canonical 5-word shape the kernel
// recognizes: lw / ori / bne / landmark / sw.
func TestDesignatedSequenceShape(t *testing.T) {
	p := Assemble(MutexCounterProgram(MechDesignated, 1, 1))
	// Find the lw that is followed by landmark at +3.
	found := false
	for i := 0; i+4 < len(p.Text); i++ {
		if isa.Decode(p.Text[i]).Op != isa.OpLW {
			continue
		}
		if !isa.Decode(p.Text[i+3]).IsLandmark() {
			continue
		}
		found = true
		if isa.Decode(p.Text[i+1]).Op != isa.OpORI {
			t.Error("word 1 not ori")
		}
		if isa.Decode(p.Text[i+2]).Op != isa.OpBNE {
			t.Error("word 2 not bne")
		}
		if isa.Decode(p.Text[i+4]).Op != isa.OpSW {
			t.Error("word 4 not sw")
		}
	}
	if !found {
		t.Fatal("no designated sequence found in program text")
	}
}

// The landmark must never appear outside designated sequences in any
// generated program (the compiler guarantee the Taos check relies on).
func TestLandmarkOnlyInDesignatedPrograms(t *testing.T) {
	for _, m := range allMechanisms {
		if m == MechDesignated || m == MechTaosMutex {
			continue // these legitimately contain landmarks
		}
		p := Assemble(MutexCounterProgram(m, 2, 10))
		for i, w := range p.Text {
			if isa.Decode(w).IsLandmark() {
				t.Errorf("%v: stray landmark at word %d", m, i)
			}
		}
	}
}

func TestProgramsContainExpectedSymbols(t *testing.T) {
	p := Assemble(MutexCounterProgram(MechRegistered, 2, 10))
	for _, sym := range []string{"main", "worker", "lock", "counter", "TestAndSet"} {
		if _, ok := p.SymbolAddr(sym); !ok {
			t.Errorf("missing symbol %q", sym)
		}
	}
}

func TestLamportProgramHasReservationData(t *testing.T) {
	src := MutexCounterProgram(MechLamportA, 3, 10)
	for _, sym := range []string{"lam_x", "lam_y", "lam_b", "compute_self"} {
		if !strings.Contains(src, sym) {
			t.Errorf("lamport program missing %q", sym)
		}
	}
}

package obs

import (
	"strings"
	"testing"
)

func newSymProfiler() *CycleProfiler {
	p := NewCycleProfiler()
	p.SetSymbols([]Symbol{
		{Name: "main", Addr: 0x100},
		{Name: "acquire", Addr: 0x200},
		{Name: "release", Addr: 0x300},
	})
	return p
}

func TestCycleProfilerResolve(t *testing.T) {
	p := newSymProfiler()
	cases := []struct {
		pc   uint32
		want string
	}{
		{0x100, "main"}, {0x1fc, "main"}, {0x200, "acquire"},
		{0x2ff, "acquire"}, {0x300, "release"}, {0x9000, "release"},
		{0x50, "0x00000050"}, // below the first symbol: raw address
	}
	for _, c := range cases {
		if got := p.Resolve(c.pc); got != c.want {
			t.Errorf("Resolve(%#x) = %q, want %q", c.pc, got, c.want)
		}
	}
}

// Aliases at one address resolve to the same name whatever order the
// symbol table arrives in (asm hands it over from a map).
func TestCycleProfilerResolveAliases(t *testing.T) {
	for _, syms := range [][]Symbol{
		{{Name: "ras_begin", Addr: 0x200}, {Name: "TestAndSet", Addr: 0x200}},
		{{Name: "TestAndSet", Addr: 0x200}, {Name: "ras_begin", Addr: 0x200}},
	} {
		p := NewCycleProfiler()
		p.SetSymbols(syms)
		if got := p.Resolve(0x204); got != "TestAndSet" {
			t.Errorf("Resolve with %v = %q, want TestAndSet", syms, got)
		}
	}
}

func TestCycleProfilerShadowStack(t *testing.T) {
	p := newSymProfiler()
	// main runs 2 ops, calls acquire (3 ops), returns, runs 1 more op.
	p.Sample(0, 0x100, 1, SampleOp, 0x104)
	p.Sample(0, 0x104, 1, SampleCall, 0x200) // jal acquire
	p.Sample(0, 0x200, 2, SampleOp, 0x204)
	p.Sample(0, 0x204, 1, SampleOp, 0x208)
	p.Sample(0, 0x208, 1, SampleReturn, 0x108) // jr ra
	p.Sample(0, 0x108, 1, SampleOp, 0x10c)

	if p.Samples() != 6 || p.Cycles() != 7 {
		t.Errorf("samples=%d cycles=%d, want 6/7", p.Samples(), p.Cycles())
	}
	// Flat: main gets its own 3 ops (2+1+1 cycles at 0x100,0x104,0x108),
	// acquire its 3 (2+1+1).
	if p.FlatCycles("main") != 3 || p.FlatCycles("acquire") != 4 {
		t.Errorf("flat main=%d acquire=%d, want 3/4", p.FlatCycles("main"), p.FlatCycles("acquire"))
	}
	// Cumulative: main is on the stack for all 7 cycles; acquire for its 4.
	if p.CumCycles("main") != 7 || p.CumCycles("acquire") != 4 {
		t.Errorf("cum main=%d acquire=%d, want 7/4", p.CumCycles("main"), p.CumCycles("acquire"))
	}
	folded := p.Folded()
	if !strings.Contains(folded, "main;acquire 4") {
		t.Errorf("folded missing call-stack attribution:\n%s", folded)
	}
	if !strings.Contains(folded, "main 3") {
		t.Errorf("folded missing main-only stack:\n%s", folded)
	}
}

func TestCycleProfilerRelabelsUntrackedTransfer(t *testing.T) {
	p := newSymProfiler()
	// A rollback/tail-jump moves from acquire to release with no call or
	// return: the top frame is relabeled, not stacked.
	p.Sample(0, 0x200, 1, SampleOp, 0x204)
	p.Sample(0, 0x300, 1, SampleOp, 0x304)
	folded := p.Folded()
	if strings.Contains(folded, ";") {
		t.Errorf("untracked transfer grew the stack:\n%s", folded)
	}
	if p.FlatCycles("acquire") != 1 || p.FlatCycles("release") != 1 {
		t.Error("flat attribution wrong after relabel")
	}
}

func TestCycleProfilerKernelAttribution(t *testing.T) {
	p := newSymProfiler()
	p.Sample(0, 0x100, 5, SampleOp, 0x104)
	p.NoteKernel(20)
	if p.FlatCycles("[kernel]") != 20 || p.Cycles() != 25 {
		t.Errorf("kernel flat=%d total=%d, want 20/25", p.FlatCycles("[kernel]"), p.Cycles())
	}
	rep := p.Report(10)
	if !strings.Contains(rep, "[kernel]") || !strings.Contains(rep, "main") {
		t.Errorf("report missing symbols:\n%s", rep)
	}
	// [kernel] has 20 of 25 cycles = 80%.
	if !strings.Contains(rep, "80.0%") {
		t.Errorf("report percentage wrong:\n%s", rep)
	}
}

func TestCycleProfilerRecursionCountsCumOnce(t *testing.T) {
	p := newSymProfiler()
	// acquire calls itself: its cum must count each sample's cycles once.
	p.Sample(0, 0x200, 1, SampleCall, 0x200)
	p.Sample(0, 0x204, 2, SampleOp, 0x208)
	if p.CumCycles("acquire") != 3 {
		t.Errorf("recursive cum = %d, want 3", p.CumCycles("acquire"))
	}
	if !strings.Contains(p.Folded(), "acquire;acquire 2") {
		t.Errorf("recursive folded stack missing:\n%s", p.Folded())
	}
}

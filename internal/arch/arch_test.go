package arch

import (
	"testing"
	"unsafe"

	"repro/internal/isa"
)

func TestAllProfilesComplete(t *testing.T) {
	profiles := append(Table4(), R3000())
	for _, p := range profiles {
		if p.Name == "" || p.ClockMHz <= 0 {
			t.Errorf("%+v: missing name or clock", p)
		}
		for _, c := range []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassStore,
			isa.ClassBranch, isa.ClassJump, isa.ClassTrap} {
			if p.Cycles(c) <= 0 {
				t.Errorf("%s: class %v has non-positive cost", p.Name, c)
			}
		}
		if p.SuspendCycles < 100 {
			t.Errorf("%s: suspension path suspiciously cheap (%d)", p.Name, p.SuspendCycles)
		}
		if p.PCCheckRegistrationCycles <= 0 || p.PCCheckDesignatedCycles <= 0 {
			t.Errorf("%s: PC check costs not set", p.Name)
		}
		if p.HasInterlocked && p.Cycles(isa.ClassInterlocked) <= 0 {
			t.Errorf("%s: interlocked without cost", p.Name)
		}
	}
}

func TestR3000HasNoInterlocked(t *testing.T) {
	if R3000().HasInterlocked {
		t.Error("the DECstation's R3000 must not support interlocked instructions")
	}
}

func TestOnlyI860HasLockBit(t *testing.T) {
	for _, p := range Table4() {
		want := p.Name == "Intel 860"
		if p.HasLockBit != want {
			t.Errorf("%s: HasLockBit = %v, want %v", p.Name, p.HasLockBit, want)
		}
	}
}

func TestMicros(t *testing.T) {
	p := R3000() // 25 MHz: 25 cycles = 1us
	if got := p.Micros(25); got != 1.0 {
		t.Errorf("Micros(25) = %v, want 1.0", got)
	}
	if got := p.Micros(0); got != 0 {
		t.Errorf("Micros(0) = %v", got)
	}
}

// The whole point of Table 4: on CVAX, 486, 88000 and PA-RISC the
// interlocked instruction should cost more microseconds than the designated
// software sequence (load + 2 ALU + branch + 2 stores).
func TestTable4Crossover(t *testing.T) {
	designated := func(p *Profile) float64 {
		cycles := p.Cycles(isa.ClassLoad) + 2*p.Cycles(isa.ClassALU) + p.Cycles(isa.ClassBranch) + 2*p.Cycles(isa.ClassStore)
		return p.Micros(uint64(cycles))
	}
	interlocked := func(p *Profile) float64 {
		return p.Micros(uint64(p.Cycles(isa.ClassInterlocked) + p.Cycles(isa.ClassStore)))
	}
	softwareWins := map[string]bool{
		"DEC CVAX":       true,
		"Motorola 68030": false, // interlocked beats *registered*, loses to inline
		"Intel 386":      false,
		"Intel 486":      true,
		"Intel 860":      true,
		"Motorola 88000": true,
		"Sun SPARC":      true,
		"HP 9000/700":    true,
	}
	for _, p := range Table4() {
		d, i := designated(p), interlocked(p)
		if d <= 0 || i <= 0 {
			t.Fatalf("%s: non-positive cost d=%v i=%v", p.Name, d, i)
		}
		// "Using designated sequences, the software approach outperforms
		// the hardware in all cases" (§6).
		if d >= i && softwareWins[p.Name] {
			t.Errorf("%s: designated %.2fus !< interlocked %.2fus", p.Name, d, i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("pdp11") != nil {
		t.Error("ByName accepted unknown processor")
	}
	if ByName("r3000").Name != "MIPS R3000" {
		t.Error("alias r3000 mismatch")
	}
}

func TestString(t *testing.T) {
	if got := R3000().String(); got != "MIPS R3000 (25.0 MHz)" {
		t.Errorf("String = %q", got)
	}
}

// Every profile prices the trap instruction as one ALU slot, and only the
// hardware a profile has costs anything.
func TestCyclesForAllClasses(t *testing.T) {
	for _, p := range append(Table4(), R3000(), SMP()) {
		c := p.ClassCycles
		if c[isa.ClassTrap] != c[isa.ClassALU] {
			t.Errorf("%s: trap costs %d, ALU %d", p.Name, c[isa.ClassTrap], c[isa.ClassALU])
		}
		if (c[isa.ClassInterlocked] > 0) != p.HasInterlocked {
			t.Errorf("%s: interlocked costs %d, HasInterlocked %v", p.Name, c[isa.ClassInterlocked], p.HasInterlocked)
		}
		if (c[isa.ClassLockB] > 0) != p.HasLockBit {
			t.Errorf("%s: lockb costs %d, HasLockBit %v", p.Name, c[isa.ClassLockB], p.HasLockBit)
		}
		if c[isa.ClassFlush] <= 0 || c[isa.ClassFence] <= 0 {
			t.Errorf("%s: flush/fence costs not set", p.Name)
		}
	}
	if got := I860().Cycles(isa.ClassLockB); got != 7 {
		t.Errorf("i860 lockb costs %d, want 7", got)
	}
}

// Every checker schedule allocates a profile: Profile must stay in the
// 160-byte malloc size class.
func TestProfileFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Profile{}); size > 160 {
		t.Errorf("unsafe.Sizeof(Profile{}) = %d, want <= 160", size)
	}
}

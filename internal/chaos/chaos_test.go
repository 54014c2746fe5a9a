package chaos

import (
	"strings"
	"testing"
	"testing/quick"
)

// A Plan is a pure function of (seed, point, ordinal): two plans built from
// the same seed and level must agree everywhere.
func TestPlanDeterministic(t *testing.T) {
	f := func(seed uint64, lvl8 uint8, pt8 uint8, n uint64) bool {
		level := float64(lvl8) / 255
		a := NewPlan(seed, level)
		b := NewPlan(seed, level)
		pt := Point(pt8 % 4)
		return a.At(pt, n) == b.At(pt, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanLevelZeroInjectsNothing(t *testing.T) {
	p := NewPlan(12345, 0)
	for pt := PointDispatch; pt <= PointMemOp; pt++ {
		for n := uint64(0); n < 5000; n++ {
			if a := p.At(pt, n); a.Any() {
				t.Fatalf("level-0 plan injected %+v at %v/%d", a, pt, n)
			}
		}
	}
}

func TestPlanLevelOneInjectsEverything(t *testing.T) {
	p := NewPlan(99, 1)
	var preempts, spurious, evCode, evData, jitters int
	for n := uint64(0); n < 100000; n++ {
		if a := p.At(PointStep, n); a.Preempt {
			preempts++
		} else if a.SpuriousSuspend {
			spurious++
		}
		if a := p.At(PointSuspend, n); a.EvictCode {
			evCode++
		} else if a.EvictData {
			evData++
		}
		if a := p.At(PointDispatch, n); a.Jitter != 0 {
			jitters++
		}
	}
	for name, c := range map[string]int{
		"preempt": preempts, "spurious": spurious,
		"evict-code": evCode, "evict-data": evData, "jitter": jitters,
	} {
		if c == 0 {
			t.Errorf("level-1 plan never injected %s in 100k opportunities", name)
		}
	}
	// Rate sanity: the forced-preemption rate is 1024/65536 = 1/64.
	if preempts < 100000/128 || preempts > 100000/32 {
		t.Errorf("preempt count %d far from expected ~%d", preempts, 100000/64)
	}
}

func TestPlanLevelClamped(t *testing.T) {
	lo, hi := NewPlan(1, -3), NewPlan(1, 7)
	if lo.PreemptRate != 0 || lo.MaxJitter != 0 {
		t.Errorf("negative level not clamped: %+v", lo)
	}
	if hi.PreemptRate != 1024 {
		t.Errorf("level > 1 not clamped: %+v", hi)
	}
}

func TestJitterBounded(t *testing.T) {
	p := NewPlan(7, 1)
	for n := uint64(0); n < 20000; n++ {
		j := p.At(PointDispatch, n).Jitter
		if j < -p.MaxJitter || j > p.MaxJitter {
			t.Fatalf("jitter %d outside ±%d", j, p.MaxJitter)
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	// Distinct argument tuples must (overwhelmingly) produce distinct
	// values; identical tuples identical ones.
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		seen[Derive(42, i)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("Derive collided: %d distinct of 1000", len(seen))
	}
	if Derive(42, 1, 2) != Derive(42, 1, 2) {
		t.Error("Derive not deterministic")
	}
	if Derive(42, 1, 2) == Derive(42, 2, 1) {
		t.Error("Derive ignores argument order")
	}
}

func TestActionBitsAndAny(t *testing.T) {
	if (Action{}).Any() {
		t.Error("zero action reported Any")
	}
	a := Action{Preempt: true, EvictData: true}
	if !a.Any() || a.Bits() != 1|8 {
		t.Errorf("bits = %#x", a.Bits())
	}
	if !(Action{Jitter: -5}).Any() {
		t.Error("jitter-only action not Any")
	}
	k := Action{Kill: true, Crash: CrashClean}
	if !k.Any() || k.Bits() != 16|32 {
		t.Errorf("kill/crash bits = %#x", k.Bits())
	}
	// The crash kinds keep the trace bits of the flags they replaced.
	for kind, want := range map[CrashKind]uint64{CrashClean: 32, CrashVolatile: 64, CrashTorn: 192} {
		if a := (Action{Crash: kind}); !a.Any() || a.Bits() != want {
			t.Errorf("crash kind %d: bits = %d, want %d", kind, a.Bits(), want)
		}
	}
}

func TestDeriveOrdinalInSpan(t *testing.T) {
	for _, span := range []uint64{1, 2, 7, 230, 1 << 40} {
		for seed := uint64(0); seed < 4; seed++ {
			for c := uint64(0); c < 200; c++ {
				if at := DeriveOrdinal(span, seed, 0x58, c); at < 1 || at > span {
					t.Fatalf("DeriveOrdinal(%d, %d, 0x58, %d) = %d, outside [1, %d]", span, seed, c, at, span)
				}
			}
		}
	}
}

// A kill plan must inject exactly the faults its NewPlan sibling does,
// plus kills: arming kills must not reshuffle the recoverable schedule.
func TestKillPlanExtendsPlanWithoutPerturbingIt(t *testing.T) {
	base := NewPlan(0xABCD, 0.75)
	kill := NewKillPlan(0xABCD, 0.75)
	if kill.KillRate == 0 {
		t.Fatal("NewKillPlan left KillRate zero")
	}
	kills := 0
	for pt := PointDispatch; pt <= PointMemOp; pt++ {
		for n := uint64(0); n < 50000; n++ {
			a, b := base.At(pt, n), kill.At(pt, n)
			if b.Kill {
				kills++
				b.Kill = false
			}
			if a != b {
				t.Fatalf("kill plan diverged from base at %v/%d: %+v vs %+v", pt, n, a, b)
			}
		}
	}
	if kills == 0 {
		t.Error("kill plan never killed in 200k opportunities")
	}
	if NewPlan(0xABCD, 0.75).KillRate != 0 {
		t.Error("NewPlan armed kills")
	}
}

func TestOneShotFiresExactlyOnce(t *testing.T) {
	o := OneShot{Point: PointStep, N: 42, Action: Action{Kill: true}}
	fired := 0
	for pt := PointDispatch; pt <= PointMemOp; pt++ {
		for n := uint64(0); n < 100; n++ {
			a := o.At(pt, n)
			if a.Any() {
				fired++
				if pt != PointStep || n != 42 || !a.Kill {
					t.Fatalf("one-shot fired %+v at %v/%d", a, pt, n)
				}
			}
		}
	}
	if fired != 1 {
		t.Fatalf("one-shot fired %d times", fired)
	}
}

func TestComposeMergesActions(t *testing.T) {
	c := Compose(
		nil,
		OneShot{Point: PointMemOp, N: 7, Action: Action{Kill: true}},
		OneShot{Point: PointMemOp, N: 7, Action: Action{Preempt: true, Jitter: 3}},
		OneShot{Point: PointMemOp, N: 9, Action: Action{Crash: CrashVolatile, Jitter: -1}},
		OneShot{Point: PointMemOp, N: 9, Action: Action{Crash: CrashClean}},
	)
	a := c.At(PointMemOp, 7)
	if !a.Kill || !a.Preempt || a.Jitter != 3 || a.Crash != CrashNone {
		t.Errorf("merge at 7: %+v", a)
	}
	if a = c.At(PointMemOp, 9); a.Crash != CrashVolatile || a.Jitter != -1 {
		t.Errorf("merge at 9: %+v", a)
	}
	if a = c.At(PointMemOp, 8); a.Any() {
		t.Errorf("phantom action %+v", a)
	}
}

func TestMutateWordsDeterministicAndSingleWord(t *testing.T) {
	words := []uint32{0x8C820000, 0x34080001, 0x14400003, 0x0000003F, 0xAC880000}
	for n := uint64(0); n < 200; n++ {
		m1, idx1, k1 := MutateWords(5, n, words)
		m2, idx2, k2 := MutateWords(5, n, words)
		if idx1 != idx2 || k1 != k2 {
			t.Fatalf("mutation %d not deterministic", n)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("mutation %d words differ at %d", n, i)
			}
		}
		diff := 0
		for i := range words {
			if m1[i] != words[i] {
				diff++
				if i != idx1 {
					t.Fatalf("mutation %d changed word %d, reported %d", n, i, idx1)
				}
			}
		}
		if diff > 1 {
			t.Fatalf("mutation %d changed %d words", n, diff)
		}
	}
	// The original must never be aliased.
	m, _, _ := MutateWords(5, 0, words)
	m[0] = 0xDEAD
	if words[0] == 0xDEAD {
		t.Error("MutateWords aliased its input")
	}
}

func TestMutateWordsEmpty(t *testing.T) {
	m, _, _ := MutateWords(1, 1, nil)
	if len(m) != 0 {
		t.Errorf("mutating empty slice produced %v", m)
	}
}

func TestStringers(t *testing.T) {
	for pt, want := range map[Point]string{
		PointDispatch: "dispatch", PointSuspend: "suspend",
		PointStep: "step", PointMemOp: "memop", Point(99): "?",
	} {
		if pt.String() != want {
			t.Errorf("%d.String() = %q", int(pt), pt.String())
		}
	}
	for p, want := range map[WatchdogPolicy]string{
		WatchdogOff: "off", WatchdogExtend: "extend", WatchdogAbort: "abort",
	} {
		if p.String() != want {
			t.Errorf("policy %d = %q want %q", int(p), p.String(), want)
		}
	}
	for k, want := range map[MutationKind]string{
		MutateNop: "nop-strip", MutateFlip: "bit-flip", MutateReplace: "replace",
	} {
		if k.String() != want {
			t.Errorf("mutation %d = %q want %q", int(k), k.String(), want)
		}
	}
}

func TestWatchdogDefaults(t *testing.T) {
	var w Watchdog
	if w.Limit() != 32 {
		t.Errorf("default limit %d", w.Limit())
	}
	w = Watchdog{MaxRestarts: 7}
	if w.Limit() != 7 {
		t.Errorf("override limit %d", w.Limit())
	}
}

func TestRepro(t *testing.T) {
	p := NewPlan(0xBEEF, 0.5)
	r := p.Repro()
	if !strings.Contains(r, "-seed 0xbeef") || !strings.Contains(r, "-level 0.5") ||
		!strings.Contains(r, "-table chaos") {
		t.Errorf("repro line %q missing fields", r)
	}
}

// refAt is Plan.At without the cached prefix: every decision hashed with
// Derive(Seed, pt+1, n), as the plan is specified.
func refAt(p *Plan, pt Point, n uint64) Action {
	var a Action
	h := Derive(p.Seed, uint64(pt)+1, n)
	switch pt {
	case PointStep, PointMemOp:
		a.Preempt = uint32(h&0xFFFF) < p.PreemptRate
		a.SpuriousSuspend = uint32(h>>16&0xFFFF) < p.SpuriousRate
		a.Kill = uint32(h>>32&0xFFFF) < p.KillRate
	case PointSuspend:
		a.EvictCode = uint32(h&0xFFFF) < p.EvictCodeRate
		a.EvictData = uint32(h>>16&0xFFFF) < p.EvictDataRate
	case PointDispatch:
		if p.MaxJitter > 0 {
			a.Jitter = int64(h%uint64(2*p.MaxJitter+1)) - p.MaxJitter
		}
	}
	return a
}

// Plan.At hashes with a cached seed-only prefix. It must agree with the
// uncached reference everywhere: for every Point, for plans from NewPlan
// and from literals, and after the Seed of a plan that has already been
// consulted is reassigned.
func TestPlanAtMatchesDerive(t *testing.T) {
	check := func(p *Plan) {
		t.Helper()
		for pt := PointDispatch; pt <= PointPersist; pt++ {
			for n := uint64(0); n < 10000; n++ {
				if got, want := p.At(pt, n), refAt(p, pt, n); got != want {
					t.Fatalf("seed %#x %v/%d: At %+v, reference %+v", p.Seed, pt, n, got, want)
				}
			}
		}
	}
	for _, seed := range []uint64{0, 1, 0xABCD, 1<<63 | 5, ^uint64(0)} {
		p := NewKillPlan(seed, 0.75)
		check(p)
		p.Seed = Derive(seed, 99)
		check(p)
		p.Seed = seed
		check(p)
		check(&Plan{Seed: seed, PreemptRate: 4096, SpuriousRate: 2048, KillRate: 512,
			EvictCodeRate: 30000, EvictDataRate: 9000, MaxJitter: 50})
	}
}

// nextWindow is how far past n FuzzInjectorNext checks a hint by brute
// force: twice Plan's scan bound, so a plan's capped hint is followed
// at least once.
const nextWindow = 2 * nextScan

// FuzzInjectorNext holds the Next contract for every injector in the
// package: Next(p, n) >= n, and At(p, k) is empty for every k from n up
// to the hint. It follows hints across a window of ordinals past n, and
// checks that a Cursor over the injector reports exactly the faults At
// does.
func FuzzInjectorNext(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(64), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint64(1), uint64(0))
	f.Add(uint8(1), uint64(0xBEEF), uint8(255), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint64(700), uint64(0))
	f.Add(uint8(2), uint64(7), uint8(0), uint16(0), uint16(0), uint16(16), uint16(0), uint16(0), uint16(0), uint64(0), uint64(0))
	f.Add(uint8(2), uint64(8), uint8(0), uint16(300), uint16(0), uint16(0), uint16(9000), uint16(0), uint16(0), uint64(5), uint64(0))
	f.Add(uint8(2), uint64(9), uint8(0), uint16(0), uint16(40), uint16(0), uint16(0), uint16(500), uint16(3), uint64(5), uint64(0))
	f.Add(uint8(2), uint64(10), uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint64(5), uint64(0))
	f.Add(uint8(3), uint64(2), uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint64(40), uint64(100))
	f.Add(uint8(4), uint64(3), uint8(128), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint64(90), uint64(200))
	f.Add(uint8(5), uint64(4), uint8(255), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint64(3), uint64(60))
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, level uint8,
		preempt, spurious, kill, evictCode, evictData, jitter uint16, n, shotAt uint64) {
		n %= 1 << 40
		shotAt %= 1 << 40
		plan := NewPlan(seed, float64(level)/255)
		switch kind % 3 {
		case 1:
			plan = NewKillPlan(seed, float64(level)/255)
		case 2:
			plan = &Plan{Seed: seed, PreemptRate: uint32(preempt), SpuriousRate: uint32(spurious),
				KillRate: uint32(kill), EvictCodeRate: uint32(evictCode), EvictDataRate: uint32(evictData),
				MaxJitter: int64(jitter % 64)}
		}
		shot := OneShot{Point: Point(seed % 5), N: shotAt, Action: Action{Kill: true}}
		var inj Injector
		switch kind / 3 % 3 {
		case 0:
			inj = plan
		case 1:
			inj = shot
		case 2:
			inj = Compose(plan, shot)
		}
		if kind/9%2 == 1 {
			inj = Offset(inj, shotAt/2)
		}
		for p := PointDispatch; p <= PointPersist; p++ {
			end := n + nextWindow
			for k := n; k < end; {
				m := inj.Next(p, k)
				if m < k {
					t.Fatalf("%v: Next(%d) = %d, below its argument", p, k, m)
				}
				for ; k < m && k < end; k++ {
					if a := inj.At(p, k); a.Any() {
						t.Fatalf("%v: Next hinted %d but At(%d) = %+v", p, m, k, a)
					}
				}
				k++ // m itself may fire
			}
			c := NewCursor(inj)
			for k := n; k < end; k++ {
				want := inj.At(p, k)
				if got, ok := c.At(p, k); got != want || ok != want.Any() {
					t.Fatalf("%v/%d: cursor gave %+v, %v; At gives %+v", p, k, got, ok, want)
				}
			}
		}
	})
}

// BenchmarkPlanNext is the host cost per ordinal of finding a plan's
// faults at retired steps, as a kernel's Cursor does: one Next call per
// stretch of fault-free ordinals and one At call per fault.
func BenchmarkPlanNext(b *testing.B) {
	p := NewPlan(0xBEEF, 0.25)
	for n := uint64(0); n < uint64(b.N); n++ {
		if n = p.Next(PointStep, n); n < uint64(b.N) {
			planSink = p.At(PointStep, n)
		}
	}
}

var planSink Action

package chaos

import "testing"

func TestCrashPlanDeterminism(t *testing.T) {
	p := &CrashPlan{Seed: 7, Point: PointStep, Span: 500, Crashes: 100, WClean: 1, WVolatile: 2, WTorn: 1}
	var clean, vol, torn int
	for b := 0; b < p.Crashes; b++ {
		n, a, ok := p.CrashAt(b)
		if !ok {
			t.Fatalf("boot %d: no crash planned", b)
		}
		if n < 1 || n > p.Span {
			t.Fatalf("boot %d: ordinal %d outside [1,%d]", b, n, p.Span)
		}
		n2, a2, _ := p.CrashAt(b)
		if n2 != n || a2 != a {
			t.Fatalf("boot %d: plan not deterministic", b)
		}
		switch a.Crash {
		case CrashClean:
			clean++
		case CrashVolatile:
			vol++
		case CrashTorn:
			torn++
		}
	}
	if clean == 0 || vol == 0 || torn == 0 {
		t.Fatalf("mix 1:2:1 over 100 boots produced clean=%d volatile=%d torn=%d", clean, vol, torn)
	}
	if _, _, ok := p.CrashAt(p.Crashes); ok {
		t.Fatalf("boot %d should run clean", p.Crashes)
	}
	if inj := p.Boot(p.Crashes); inj != nil {
		t.Fatalf("clean boot got injector %v", inj)
	}
	n, a, _ := p.CrashAt(3)
	got := p.Boot(3).At(p.Point, n)
	if got != a {
		t.Fatalf("Boot(3) injector = %+v at ordinal %d, want %+v", got, n, a)
	}
	if x := p.Boot(3).At(p.Point, n+1); x.Any() {
		t.Fatalf("Boot(3) fired off-ordinal: %+v", x)
	}
}

func TestCrashPlanRoundTrip(t *testing.T) {
	plans := []*CrashPlan{
		{Seed: 1, Point: PointStep, Span: 600, Crashes: 1000, WClean: 1, WVolatile: 2, WTorn: 1},
		{Seed: 0xDEADBEEF, Point: PointMemOp, Span: 90, Crashes: 160, WVolatile: 1},
		{Seed: 42, Point: PointPersist, Span: 12, Crashes: 6, WTorn: 3},
	}
	for _, p := range plans {
		s := p.String()
		q, err := ParseCrashPlan(s)
		if err != nil {
			t.Fatalf("ParseCrashPlan(%q): %v", s, err)
		}
		if q.String() != s {
			t.Fatalf("round trip drifted: %q -> %q", s, q.String())
		}
		for b := 0; b < p.Crashes+2; b++ {
			n1, a1, ok1 := p.CrashAt(b)
			n2, a2, ok2 := q.CrashAt(b)
			if n1 != n2 || a1 != a2 || ok1 != ok2 {
				t.Fatalf("%q: boot %d schedules differ after round trip", s, b)
			}
		}
	}
}

func TestCrashPlanParseErrors(t *testing.T) {
	bad := []string{
		"seed=1,point=step,span=5,crashes=1,mix=1:0:0", // missing prefix
		"crashplan:seed=1,point=step,span=5,crashes=1", // missing mix
		"crashplan:seed=1,point=nope,span=5,crashes=1,mix=1:0:0",
		"crashplan:seed=1,point=step,span=5,crashes=1,mix=0:0:0",
		"crashplan:seed=1,point=step,span=5,crashes=1,mix=1:0:0,bogus=2",
		"crashplan:seed=1,seed=2,point=step,span=5,crashes=1,mix=1:0:0",
		"crashplan:seed=1,point=step,span=5,crashes=-3,mix=1:0:0",
	}
	for _, s := range bad {
		if _, err := ParseCrashPlan(s); err == nil {
			t.Errorf("ParseCrashPlan(%q) succeeded, want error", s)
		}
	}
}

func TestOffsetInjector(t *testing.T) {
	inner := OneShot{Point: PointPersist, N: 10, Action: Action{Crash: CrashVolatile}}
	inj := Offset(inner, 7)
	if a := inj.At(PointPersist, 3); a.Crash != CrashVolatile {
		t.Fatalf("offset injector missed global ordinal 10 (local 3): %+v", a)
	}
	if a := inj.At(PointPersist, 10); a.Any() {
		t.Fatalf("offset injector fired at local 10 (global 17): %+v", a)
	}
	if Offset(nil, 5) != nil {
		t.Fatalf("Offset(nil) should stay nil")
	}
}

// FuzzChaosPlan holds the serialization round trip that makes every
// TableResilience campaign line a valid one-line reproducer: any plan
// String()s to a form ParseCrashPlan accepts, the parse reproduces the
// exact crash schedule, and any accepted string re-serializes stably.
func FuzzChaosPlan(f *testing.F) {
	f.Add(uint64(1), 2, uint64(600), 1000, 1, 2, 1)
	f.Add(uint64(0xDEADBEEF), 3, uint64(90), 160, 0, 1, 0)
	f.Add(uint64(42), 4, uint64(12), 6, 0, 0, 3)
	f.Add(uint64(0), 0, uint64(0), 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, seed uint64, point int, span uint64, crashes, wc, wv, wt int) {
		p := &CrashPlan{
			Seed:    seed,
			Point:   Point(((point % 5) + 5) % 5),
			Span:    span % (1 << 40),
			Crashes: ((crashes % (1 << 20)) + (1 << 20)) % (1 << 20),
			WClean:  wc, WVolatile: wv, WTorn: wt,
		}
		s := p.String()
		q, err := ParseCrashPlan(s)
		if err != nil {
			t.Fatalf("own String() did not parse: %q: %v", s, err)
		}
		if q.String() != s {
			t.Fatalf("re-serialization drifted: %q -> %q", s, q.String())
		}
		for _, b := range []int{0, 1, p.Crashes / 2, p.Crashes - 1, p.Crashes} {
			n1, a1, ok1 := p.CrashAt(b)
			n2, a2, ok2 := q.CrashAt(b)
			if n1 != n2 || a1 != a2 || ok1 != ok2 {
				t.Fatalf("%q: boot %d schedule differs after round trip", s, b)
			}
		}
	})
}

package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// CrashPlan is a deterministic multi-crash campaign: the schedule a
// supervised reboot-in-place run (internal/resilience) is driven by. For
// each boot b in [0, Crashes) the plan injects exactly one whole-machine
// crash — its ordinal drawn uniformly from [1, Span] and its CrashKind
// (clean, volatile or torn) drawn from the mix weights, both pure
// functions of (Seed, b) — and after Crashes boots the machine runs
// clean, so every campaign terminates. A crash whose ordinal exceeds the
// boot's natural length simply never fires; the boot completes early.
//
// Span is deliberately independent of the workload length: a span around
// the cost of recovery plus a transaction or two keeps per-boot forward
// progress small, so a long campaign exercises hundreds of reboots —
// including ordinals that land INSIDE the recovery path of the previous
// crash, the crash-during-recovery regime recoverable mutual exclusion
// assumes.
//
// The String/ParseCrashPlan pair is a loss-free one-line serialization:
// every campaign row in TableResilience embeds it as its reproducer, and
// FuzzChaosPlan holds the round trip.
type CrashPlan struct {
	Seed    uint64
	Point   Point  // ordinal space the crashes land in (step, memop, persist)
	Span    uint64 // crash ordinals are drawn from [1, Span]
	Crashes int    // boots that get a crash; later boots run clean
	// Kind mix weights (clean : volatile : torn). All zero means
	// volatile-only.
	WClean, WVolatile, WTorn int
}

// mix returns the plan's nonnegative kind weights, indexed by kind.
func (p *CrashPlan) mix() (w [CrashTorn + 1]int) {
	w[CrashClean], w[CrashVolatile], w[CrashTorn] = max(p.WClean, 0), max(p.WVolatile, 0), max(p.WTorn, 0)
	if w[CrashClean]+w[CrashVolatile]+w[CrashTorn] == 0 {
		w[CrashVolatile] = 1
	}
	return w
}

// CrashAt returns boot b's crash: the 1-based ordinal at p.Point and the
// action to inject there. ok is false when boot b runs clean (b < 0 or
// b >= Crashes).
func (p *CrashPlan) CrashAt(b int) (n uint64, a Action, ok bool) {
	if b < 0 || b >= p.Crashes || p.Span == 0 {
		return 0, Action{}, false
	}
	n = Derive(p.Seed, 0xCA11, uint64(b))%p.Span + 1
	w := p.mix()
	k := int(Derive(p.Seed, 0xCA12, uint64(b)) % uint64(w[CrashClean]+w[CrashVolatile]+w[CrashTorn]))
	a.Crash = CrashClean
	for ; k >= w[a.Crash]; a.Crash++ {
		k -= w[a.Crash]
	}
	return n, a, true
}

// Boot returns the injector for boot b: a OneShot for the boot's planned
// crash, or nil when the boot runs clean.
func (p *CrashPlan) Boot(b int) Injector {
	n, a, ok := p.CrashAt(b)
	if !ok {
		return nil
	}
	return OneShot{Point: p.Point, N: n, Action: a}
}

// String renders the plan in its canonical one-line form:
//
//	crashplan:seed=0x1,point=step,span=600,crashes=1000,mix=1:2:1
func (p *CrashPlan) String() string {
	w := p.mix()
	return fmt.Sprintf("crashplan:seed=%#x,point=%s,span=%d,crashes=%d,mix=%d:%d:%d",
		p.Seed, p.Point, p.Span, p.Crashes, w[CrashClean], w[CrashVolatile], w[CrashTorn])
}

// ParsePoint inverts Point.String for the points a crash plan can name.
func ParsePoint(s string) (Point, error) {
	for _, p := range []Point{PointDispatch, PointSuspend, PointStep, PointMemOp, PointPersist} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown point %q", s)
}

// ParseCrashPlan inverts CrashPlan.String. Unknown keys, missing keys,
// and malformed values are errors: a campaign reproducer that has
// drifted must fail loudly, not silently run a different campaign.
func ParseCrashPlan(s string) (*CrashPlan, error) {
	body, ok := strings.CutPrefix(s, "crashplan:")
	if !ok {
		return nil, fmt.Errorf("chaos: crash plan %q lacks the crashplan: prefix", s)
	}
	p := &CrashPlan{}
	seen := map[string]bool{}
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: crash plan field %q is not key=value", kv)
		}
		if seen[k] {
			return nil, fmt.Errorf("chaos: crash plan repeats field %q", k)
		}
		seen[k] = true
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 0, 64)
		case "point":
			p.Point, err = ParsePoint(v)
		case "span":
			p.Span, err = strconv.ParseUint(v, 0, 64)
		case "crashes":
			p.Crashes, err = strconv.Atoi(v)
		case "mix":
			var c, vv, t int
			if _, serr := fmt.Sscanf(v, "%d:%d:%d", &c, &vv, &t); serr != nil {
				err = fmt.Errorf("mix %q is not clean:volatile:torn", v)
			} else if c < 0 || vv < 0 || t < 0 || c+vv+t == 0 {
				err = fmt.Errorf("mix %q needs nonnegative weights summing above zero", v)
			} else {
				p.WClean, p.WVolatile, p.WTorn = c, vv, t
			}
		default:
			err = fmt.Errorf("unknown field %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: crash plan %q: %v", s, err)
		}
	}
	for _, k := range []string{"seed", "point", "span", "crashes", "mix"} {
		if !seen[k] {
			return nil, fmt.Errorf("chaos: crash plan %q missing field %q", s, k)
		}
	}
	if p.Crashes < 0 {
		return nil, fmt.Errorf("chaos: crash plan %q: negative crash count", s)
	}
	return p, nil
}

// offset translates per-boot ordinals into a global, cross-boot ordinal
// space.
type offset struct {
	inner Injector
	base  uint64
}

// Offset wraps inner so the n-th instrumentation point of the current
// boot is presented as global ordinal base+n. Substrates restart their
// ordinal counters at zero on every (re)boot; a supervised campaign or a
// model-checker schedule that addresses "the k-th persist operation
// since the first boot" installs Offset(inner, opsSoFar) on each reboot.
func Offset(inner Injector, base uint64) Injector {
	if inner == nil {
		return nil
	}
	return offset{inner: inner, base: base}
}

// At implements Injector.
func (o offset) At(p Point, n uint64) Action {
	return o.inner.At(p, o.base+n)
}

// Next implements Injector.
func (o offset) Next(p Point, n uint64) uint64 {
	m := o.inner.Next(p, o.base+n)
	if m == Never {
		return Never
	}
	return m - o.base
}

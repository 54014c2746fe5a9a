// Package chaos provides deterministic, seeded fault injection for both of
// the repository's substrates: the ISA-level simulated kernel
// (internal/vmach/kernel) and the primitive-op-level virtual uniprocessor
// (internal/uniproc).
//
// The paper's central hazard is that a restartable atomic sequence is only
// correct if it eventually completes, and only safe if the kernel's recovery
// machinery survives the faults it can itself provoke: a sequence longer
// than a quantum restarts forever (§3.1), and the PC check reads user memory
// that may be paged out (§4.1-§4.2). The seed modelled these hazards ad hoc
// (a fixed eviction period, a hand-rolled fault loop); this package makes
// them systematic: an injection Plan is a pure function of (seed, point,
// event ordinal), so any failure it provokes is replayable from a one-line
// seed and any sweep is exactly repeatable.
//
// Both substrates drive a Plan through the same Injector interface at their
// natural instrumentation points: the kernel at every dispatch, involuntary
// suspension, and retired instruction; the uniprocessor runtime at every
// dispatch, every Load/Store preemption point and every persist operation.
// A substrate counts the ordinals of every point, with or without an
// injector, but consults the injector only through a Cursor, which calls
// At only at the ordinals the injector's Next hint leaves open: faults are
// rare, and the common path pays one increment and one compare.
//
// The package also defines the Watchdog policy shared by both kernels: the
// restart-livelock detector that notices a sequence restarting without
// forward progress and either extends the quantum once or aborts the run
// with a diagnostic naming the sequence.
package chaos

import "fmt"

// Point identifies an instrumentation point at which a substrate consults
// the injector.
type Point int

const (
	// PointDispatch: a thread is being given the processor. Jitter is
	// applied to the new timeslice here.
	PointDispatch Point = iota
	// PointSuspend: a thread was involuntarily suspended (timer, page
	// fault, or an injected preemption). Page evictions are applied here,
	// so the recovery machinery's own PC check can fault (§4.1).
	PointSuspend
	// PointStep: one guest instruction retired on the ISA-level machine.
	// Forced preemptions and spurious suspensions land here.
	PointStep
	// PointMemOp: one guest Load/Store on the virtual uniprocessor — the
	// runtime layer's preemption points.
	PointMemOp
	// PointPersist: one persist operation (a flush or a fence) retired on
	// the virtual uniprocessor. Crash faults land here so a schedule can
	// name "the k-th persist boundary" directly — the ordinal space the
	// model checker's journal and persistent-structure walks enumerate.
	// Only crashes are honoured at this point; persist operations are
	// not preemption points.
	PointPersist
)

func (p Point) String() string {
	switch p {
	case PointDispatch:
		return "dispatch"
	case PointSuspend:
		return "suspend"
	case PointStep:
		return "step"
	case PointMemOp:
		return "memop"
	case PointPersist:
		return "persist"
	}
	return "?"
}

// Action is the set of faults an injector asks the substrate to apply at a
// point. Fields a substrate cannot honour (page evictions have no meaning
// on the uniproc layer, which has no pages) are ignored.
type Action struct {
	// Preempt forces a timer-style involuntary preemption at this
	// instruction/memory-op boundary, regardless of the remaining slice.
	Preempt bool
	// SpuriousSuspend suspends and immediately requeues the thread without
	// a timer expiry — the "suspended for no visible reason" case (signal
	// delivery, page daemon) that the recovery path must also survive.
	SpuriousSuspend bool
	// EvictCode marks the thread's code page not-present, so the next
	// instruction fetch — or the kernel's own PC check — page-faults.
	EvictCode bool
	// EvictData marks the thread's stack page not-present.
	EvictData bool
	// Jitter is added to the length of the timeslice being started
	// (possibly negative; substrates clamp so a slice is never empty).
	Jitter int64
	// Kill terminates the running thread on the spot: its stack is
	// unwound, its registrations reaped, and it never runs again — the
	// fault class the recoverable-mutual-exclusion (RME) line of work
	// models, which restartable sequences alone cannot survive (a thread
	// killed inside a critical section orphans the lock forever).
	Kill bool
	// Crash halts the whole machine mid-run: the substrate stops
	// scheduling and reports a machine-crash error. Its kind says what
	// the crash leaves in memory; see CrashKind.
	Crash CrashKind
}

// CrashKind says what a whole-machine crash leaves in memory. Each
// substrate applies a kind with one rule: vmach.Memory.Crash on 64-byte
// lines, uniproc.Processor.Crash on words. A volatile or torn crash on a
// memory without the persistence model has no volatile tier to lose: it
// degrades to a clean crash, and the substrate traces the degradation.
type CrashKind uint8

const (
	// CrashNone: no crash.
	CrashNone CrashKind = iota
	// CrashClean is a crash of a machine with fully persistent memory:
	// every committed store survives, so the halted state is intact
	// exactly as written, ready for checkpointing or a warm reboot. On a
	// memory with the persistence model the volatile tier becomes durable,
	// as under eADR, where the caches are flushed on power loss.
	// TestCrashIsFullyPersistent asserts the contract.
	CrashClean
	// CrashVolatile is the NVRAM-model crash: every memory line whose
	// write-back has not been fenced reverts to its NVM image, so a
	// recovery path sees NVM contents only, the failure mode the
	// recoverable-mutex literature assumes.
	CrashVolatile
	// CrashTorn is CrashVolatile with torn write-backs: lines whose
	// write-back was initiated (flushed) but not fenced persist only a
	// PREFIX of their words, the failure mode of an NVM controller that
	// loses power halfway through draining a line. The prefix is derived
	// from the crash ordinal, so a torn crash replays exactly.
	CrashTorn
)

// crashBits are each kind's trace bits: clean 32, volatile 64, torn
// 64|128.
var crashBits = [...]uint64{CrashNone: 0, CrashClean: 32, CrashVolatile: 64, CrashTorn: 192}

// Any reports whether the action requests any fault at all.
func (a Action) Any() bool {
	return a.Preempt || a.SpuriousSuspend || a.EvictCode || a.EvictData ||
		a.Jitter != 0 || a.Kill || a.Crash != CrashNone
}

// Bits packs the action's flags for compact trace output.
func (a Action) Bits() uint64 {
	b := crashBits[a.Crash]
	for i, f := range [...]bool{a.Preempt, a.SpuriousSuspend, a.EvictCode, a.EvictData, a.Kill} {
		if f {
			b |= 1 << i
		}
	}
	return b
}

// Merge returns the faults of a and x together: flags OR-ed, jitters
// summed, and the later crash kind in CrashKind order (torn over
// volatile over clean).
func (a Action) Merge(x Action) Action {
	return Action{
		Preempt:         a.Preempt || x.Preempt,
		SpuriousSuspend: a.SpuriousSuspend || x.SpuriousSuspend,
		EvictCode:       a.EvictCode || x.EvictCode,
		EvictData:       a.EvictData || x.EvictData,
		Jitter:          a.Jitter + x.Jitter,
		Kill:            a.Kill || x.Kill,
		Crash:           max(a.Crash, x.Crash),
	}
}

// Injector decides the faults at each instrumentation point; n is the
// ordinal of that point kind (1st dispatch, 2nd dispatch, ...), so a
// deterministic injector yields an exactly reproducible fault schedule.
// Substrates do not call it directly: a Cursor asks Next where the next
// fault may land and calls At only there.
type Injector interface {
	// At returns the faults requested at the n-th occurrence of p.
	At(p Point, n uint64) Action
	// Next returns a conservative hint: an ordinal m >= n such that
	// At(p, k) is empty for every n <= k < m, or Never when At(p, k) is
	// empty for every k >= n. Returning n is always correct.
	Next(p Point, n uint64) uint64
}

// Never is the Next hint of an injector that will not fire again at a
// point.
const Never = ^uint64(0)

// Cursor consults an injector on behalf of one substrate. It remembers,
// per point, the ordinal below which the injector's Next hint promised no
// fault, and calls the injector only once an ordinal reaches it. Ordinals
// at each point must not decrease between calls. A cursor is derived
// state: a substrate restored from a checkpoint builds a fresh one, whose
// hints are stale only on the low side.
type Cursor struct {
	inj  Injector
	next [PointPersist + 1]uint64 // no fault below this ordinal
}

// NewCursor returns a cursor over inj; a nil inj never fires.
func NewCursor(inj Injector) Cursor {
	c := Cursor{inj: inj}
	if inj == nil {
		for i := range c.next {
			c.next[i] = Never
		}
	}
	return c
}

// At returns the faults requested at the n-th occurrence of p, and
// whether there are any.
func (c *Cursor) At(p Point, n uint64) (a Action, ok bool) {
	if n >= c.next[p] {
		a, ok = c.consult(p, n)
	}
	return
}

// Quiet returns the cursor's hint at p: no ordinal below it can fire, so
// a substrate may pass every ordinal under it without calling At. A
// fresh cursor's hint is 0 until At first consults the injector; a nil
// injector's is Never.
func (c *Cursor) Quiet(p Point) uint64 { return c.next[p] }

func (c *Cursor) consult(p Point, n uint64) (Action, bool) {
	if m := c.inj.Next(p, n); m > n {
		c.next[p] = m
		return Action{}, false
	}
	c.next[p] = n + 1
	a := c.inj.At(p, n)
	return a, a.Any()
}

// Plan is the deterministic seeded injector: every decision is a pure
// function of (Seed, point, ordinal). Rates are probabilities in units of
// 1/65536 per opportunity. At and Next cache the seed-derived part of the
// hash in the Plan, so one Plan must not be consulted from two goroutines
// at once.
type Plan struct {
	Seed  uint64
	Level float64 // intensity this plan was built with (informational)

	PreemptRate   uint32 // forced preemption, per retired step / mem op
	SpuriousRate  uint32 // spurious suspension, per retired step / mem op
	EvictCodeRate uint32 // code-page eviction, per involuntary suspension
	EvictDataRate uint32 // stack-page eviction, per involuntary suspension
	MaxJitter     int64  // timeslice jitter amplitude (cycles), per dispatch
	// KillRate is the thread-death probability per retired step / mem op.
	// NewPlan leaves it zero: kills change a workload's outcome, so they
	// are opted into with NewKillPlan (or set explicitly) rather than
	// riding along with the recoverable-fault sweep.
	KillRate uint32

	// prefix holds, for each Point At decides on, the seed-only part of
	// Derive(Seed, pt+1, n); prefixSeed is the Seed it was built for, so
	// a Plan literal or a reassigned Seed rebuilds it on the next use.
	prefix     [PointMemOp + 1]uint64
	prefixSeed uint64
	prefixOK   bool
}

// NewPlan derives a Plan from a seed and an intensity level in [0,1]:
// level 0 injects nothing; level 1 forces a preemption about every 64
// instructions, a spurious suspension about every 128, evicts the code page
// on one suspension in eight and the stack page on one in sixteen, and
// jitters every timeslice by up to ±2000 cycles.
func NewPlan(seed uint64, level float64) *Plan {
	if level < 0 {
		level = 0
	}
	if level > 1 {
		level = 1
	}
	return &Plan{
		Seed:          seed,
		Level:         level,
		PreemptRate:   uint32(level * 1024),
		SpuriousRate:  uint32(level * 512),
		EvictCodeRate: uint32(level * 8192),
		EvictDataRate: uint32(level * 4096),
		MaxJitter:     int64(level * 2000),
	}
}

// NewKillPlan derives a Plan like NewPlan and additionally arms thread
// kills: at level 1 the running thread dies about once every 4096 retired
// steps / memory ops. Kill decisions consume hash bits untouched by the
// other fault kinds, so a kill plan injects exactly the faults its NewPlan
// sibling would, plus the deaths.
func NewKillPlan(seed uint64, level float64) *Plan {
	p := NewPlan(seed, level)
	p.KillRate = uint32(p.Level * 16)
	return p
}

// At implements Injector.
func (p *Plan) At(pt Point, n uint64) Action {
	var a Action
	if pt < PointDispatch || pt > PointMemOp {
		return a
	}
	h := Mix(p.seedPrefix(pt) ^ n) // = Derive(p.Seed, uint64(pt)+1, n)
	switch pt {
	case PointStep, PointMemOp:
		if uint32(h&0xFFFF) < p.PreemptRate {
			a.Preempt = true
		}
		if uint32(h>>16&0xFFFF) < p.SpuriousRate {
			a.SpuriousSuspend = true
		}
		if uint32(h>>32&0xFFFF) < p.KillRate {
			a.Kill = true
		}
	case PointSuspend:
		if uint32(h&0xFFFF) < p.EvictCodeRate {
			a.EvictCode = true
		}
		if uint32(h>>16&0xFFFF) < p.EvictDataRate {
			a.EvictData = true
		}
	case PointDispatch:
		if p.MaxJitter > 0 {
			span := uint64(2*p.MaxJitter + 1)
			a.Jitter = int64(h%span) - p.MaxJitter
		}
	}
	return a
}

// nextScan bounds how many ordinals one Plan.Next call hashes ahead.
const nextScan = 4096

// Next implements Injector. Step and memory-op faults are found by
// hashing ordinals ahead, at most nextScan of them; jitter may change
// every dispatch, so a jittering plan returns n there.
func (p *Plan) Next(pt Point, n uint64) uint64 {
	var r0, r1, r2 uint32 // rates tested on hash bits 0, 16 and 32
	switch pt {
	case PointStep, PointMemOp:
		r0, r1, r2 = p.PreemptRate, p.SpuriousRate, p.KillRate
	case PointSuspend:
		r0, r1 = p.EvictCodeRate, p.EvictDataRate
	case PointDispatch:
		if p.MaxJitter > 0 {
			return n
		}
		return Never
	default:
		return Never
	}
	if r0 == 0 && r1 == 0 && r2 == 0 {
		return Never
	}
	pre := p.seedPrefix(pt)
	end := n + nextScan
	if end < n {
		end = Never
	}
	for m := n; m < end; m++ {
		h := Mix(pre ^ m)
		if uint32(h&0xFFFF) < r0 || uint32(h>>16&0xFFFF) < r1 || uint32(h>>32&0xFFFF) < r2 {
			return m
		}
	}
	return end
}

// seedPrefix returns the seed-only rounds of Derive(Seed, pt+1, n),
// rebuilding the cache when the Plan is new or its Seed was reassigned.
func (p *Plan) seedPrefix(pt Point) uint64 {
	if !p.prefixOK || p.prefixSeed != p.Seed {
		h := Mix(p.Seed)
		for i := range p.prefix {
			p.prefix[i] = Mix(h ^ uint64(i+1))
		}
		p.prefixSeed, p.prefixOK = p.Seed, true
	}
	return p.prefix[pt]
}

// Repro renders the one-line reproducer for this plan against the chaos
// table of cmd/rasbench.
func (p *Plan) Repro() string {
	return fmt.Sprintf("go run ./cmd/rasbench -table chaos -seed %#x -level %g", p.Seed, p.Level)
}

// Mix is the SplitMix64 output function: a bijective avalanche mix.
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Derive folds vals into seed with SplitMix64, producing an independent
// deterministic stream per distinct argument tuple. Exported so tests and
// harnesses can derive per-scenario seeds from one master seed.
func Derive(seed uint64, vals ...uint64) uint64 {
	h := Mix(seed)
	for _, v := range vals {
		h = Mix(h ^ v)
	}
	return h
}

// DeriveOrdinal is the ordinal in [1, span] at which a seeded sweep
// strikes — Derive(seed, vals...) reduced into the span. Every crash and
// kill sweep draws its points through it, so a sweep's points replay from
// (seed, vals) alone.
func DeriveOrdinal(span, seed uint64, vals ...uint64) uint64 {
	return Derive(seed, vals...)%span + 1
}

// OneShot is an Injector requesting a single action at exactly the N-th
// occurrence of one point (ordinals are 1-based) and nothing anywhere else.
// It is how the recovery sweeps express a deterministic schedule — "kill
// whichever thread is running at memory op 1234" — and how rasvm's
// -kill-at / -crash-at flags are implemented.
type OneShot struct {
	Point  Point
	N      uint64
	Action Action
}

// At implements Injector.
func (o OneShot) At(p Point, n uint64) Action {
	if p == o.Point && n == o.N {
		return o.Action
	}
	return Action{}
}

// Next implements Injector.
func (o OneShot) Next(p Point, n uint64) uint64 {
	if p == o.Point && n <= o.N {
		return o.N
	}
	return Never
}

// composed merges several injectors' actions.
type composed []Injector

// Compose returns an Injector that consults every given injector at each
// point and merges their requests with Action.Merge. Nil entries are
// skipped. Used to overlay deterministic kill/crash schedules on a
// background Plan.
func Compose(injs ...Injector) Injector {
	var c composed
	for _, in := range injs {
		if in != nil {
			c = append(c, in)
		}
	}
	return c
}

// At implements Injector.
func (c composed) At(p Point, n uint64) Action {
	var a Action
	for _, in := range c {
		a = a.Merge(in.At(p, n))
	}
	return a
}

// Next implements Injector: the earliest hint of any child.
func (c composed) Next(p Point, n uint64) uint64 {
	m := Never
	for _, in := range c {
		m = min(m, in.Next(p, n))
	}
	return m
}

// Watchdog policies ----------------------------------------------------------

// WatchdogPolicy selects how a kernel responds when one restartable
// sequence keeps restarting without forward progress.
type WatchdogPolicy int

const (
	// WatchdogOff disables livelock detection (the seed's behaviour).
	WatchdogOff WatchdogPolicy = iota
	// WatchdogExtend grants the livelocked thread one extended timeslice
	// (ExtendFactor × quantum) so a sequence slightly longer than the
	// quantum can complete; if the livelock persists after the extension,
	// it escalates to an abort.
	WatchdogExtend
	// WatchdogAbort aborts the run immediately with a diagnostic naming
	// the sequence and its restart count.
	WatchdogAbort
)

func (p WatchdogPolicy) String() string {
	switch p {
	case WatchdogOff:
		return "off"
	case WatchdogExtend:
		return "extend"
	case WatchdogAbort:
		return "abort"
	}
	return "?"
}

// Watchdog configures restart-livelock detection, shared by both kernels.
// A thread whose restart count for one sequence reaches Limit() without an
// intervening suspension outside the sequence is considered livelocked.
type Watchdog struct {
	Policy WatchdogPolicy
	// MaxRestarts is the consecutive-restart threshold; 0 means 32.
	MaxRestarts uint64
}

// ExtendFactor is the one-time quantum multiplier WatchdogExtend grants.
const ExtendFactor = 4

// Limit returns the effective consecutive-restart threshold.
func (w Watchdog) Limit() uint64 {
	if w.MaxRestarts == 0 {
		return 32
	}
	return w.MaxRestarts
}

// Sequence mutation ----------------------------------------------------------

// MutationKind names what MutateWords did, for diagnostics.
type MutationKind int

const (
	// MutateNop replaces one word with 0 (a no-op) — applied to the
	// landmark slot this is the "landmark-stripped sequence" case.
	MutateNop MutationKind = iota
	// MutateFlip flips one bit of one word.
	MutateFlip
	// MutateReplace replaces one word with a pseudo-random word.
	MutateReplace
	numMutations
)

func (m MutationKind) String() string {
	switch m {
	case MutateNop:
		return "nop-strip"
	case MutateFlip:
		return "bit-flip"
	case MutateReplace:
		return "replace"
	}
	return "?"
}

// MutateWords returns a deterministically corrupted copy of words — the
// corrupted/landmark-stripped designated sequences of the plan. The n-th
// mutation for a seed is always the same: one word is chosen and either
// nop-stripped, bit-flipped, or replaced wholesale. The recognizer-safety
// sweeps feed these to the kernel's two-stage check, which must never roll
// a PC back unless the window still certifies as a true sequence.
func MutateWords(seed, n uint64, words []uint32) ([]uint32, int, MutationKind) {
	out := make([]uint32, len(words))
	copy(out, words)
	if len(out) == 0 {
		return out, 0, MutateNop
	}
	h := Derive(seed, 0xC0FFEE, n)
	idx := int(h % uint64(len(out)))
	kind := MutationKind(h >> 8 % uint64(numMutations))
	switch kind {
	case MutateNop:
		out[idx] = 0
	case MutateFlip:
		out[idx] ^= 1 << (h >> 16 % 32)
	case MutateReplace:
		out[idx] = uint32(h >> 24)
	}
	return out, idx, kind
}

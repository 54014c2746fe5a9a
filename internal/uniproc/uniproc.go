// Package uniproc implements a virtual uniprocessor for Go code: a set of
// green threads multiplexed onto exactly one running goroutine at a time,
// with a virtual cycle clock, timer-driven preemption, and the recovery
// hooks needed to model restartable atomic sequences.
//
// This is the second of the repository's two substrates (see DESIGN.md).
// Where internal/vmach interprets a real instruction set, uniproc runs
// ordinary Go code instrumented at memory-operation granularity: every
// Load/Store charges virtual cycles and is a potential preemption point.
// Because exactly one thread holds the baton at any moment, shared Go
// variables need no Go-level synchronization — exactly as on the paper's
// uniprocessor — and an interleaving bug in a guest algorithm manifests as
// a real lost update.
//
// A restartable atomic sequence is expressed as a closure passed to
// Env.Restartable. If the scheduler preempts the thread while the closure
// is running, the closure is aborted (via an internal panic that never
// escapes the package) and re-entered from the top — the moral equivalent
// of the kernel rolling the PC back to the sequence start.
package uniproc

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// Word is a machine word in simulated shared memory. All access from guest
// code must go through Env.Load / Env.Store so that cycles are charged and
// preemption points observed; direct access is only safe for harness code
// inspecting a finished run.
type Word uint32

// Stats aggregates the counters reported in the paper's Table 3.
type Stats struct {
	Suspensions uint64 // involuntary thread suspensions (timer preemption)
	Restarts    uint64 // restartable-sequence rollbacks
	EmulTraps   uint64 // kernel-emulated atomic operations
	Traps       uint64 // all kernel traps (syscall-level entries)
	Yields      uint64 // voluntary processor relinquishments
	Switches    uint64 // context switches
	Blocks      uint64 // threads blocking on a wait queue
	Forks       uint64 // threads created

	Flushes  uint64 // flush (write-back) operations issued
	Fences   uint64 // persist barriers executed
	Persists uint64 // words made durable by fences

	Injected        uint64 // chaos actions applied (any kind)
	Spurious        uint64 // injected spurious suspensions
	WatchdogExtends uint64 // livelock watchdog quantum extensions granted
	WatchdogAborts  uint64 // livelock watchdog aborts
	Demotions       uint64 // mechanisms demoted to emulation (core.Degrading)
	Kills           uint64 // threads killed by fault injection
	Repairs         uint64 // orphaned locks repaired (core.RecoverableMutex)
}

// Config parametrizes a Processor.
type Config struct {
	Profile *arch.Profile // cost model; default R3000 (DECstation 5000/200)
	Quantum uint64        // timeslice in cycles; default 50000 (~2ms at 25MHz)
	// JitterSeed, when nonzero, perturbs each timeslice length by up to
	// ±25% with a deterministic xorshift stream, preventing phase lock
	// between the quantum and loop periods.
	JitterSeed uint64
	// MaxCycles aborts runs exceeding the budget. Default 1<<44.
	MaxCycles uint64
	// Faults, when non-nil, decides the faults at every Load/Store
	// preemption point (chaos.PointMemOp), persist operation
	// (chaos.PointPersist) and dispatch (chaos.PointDispatch), consulted
	// only where its Next hint allows a fault. Page-eviction actions are
	// ignored: this layer has no pages.
	Faults chaos.Injector
	// Watchdog configures restart-livelock detection for Restartable
	// sequences. The zero value (WatchdogOff) preserves the historical
	// behaviour: an overlong sequence restarts until the cycle budget.
	Watchdog chaos.Watchdog
}

// Processor is the virtual uniprocessor. Create with New, add the initial
// thread(s) with Go, then call Run.
type Processor struct {
	profile  *arch.Profile
	quantum  uint64
	jitter   uint64
	maxCyc   uint64
	faultAt  chaos.Cursor
	watchdog chaos.Watchdog
	memOps   uint64 // ordinal of Load/Store injection points

	// NVRAM persistence model at word granularity (the runtime-layer
	// analogue of vmach's 64-byte line buffer): nvShadow holds the NVM
	// image of every word whose volatile contents have diverged, nvPending
	// marks words whose write-back a flush initiated but no fence has yet
	// made durable. nvOrder keeps the pending words in flush order —
	// pointer maps iterate nondeterministically, and both the fence's
	// drain and a torn crash's partial drain must replay bit-identically
	// from a seed. Entries whose word has left nvPending (a later store
	// cancelled the write-back, or a fence drained it) are stale and
	// skipped.
	persist    bool
	nvShadow   map[*Word]Word
	nvPending  map[*Word]bool
	nvOrder    []*Word
	persistOps uint64 // ordinal of Flush/Fence injection points (chaos.PointPersist)

	clock       uint64
	sliceEnd    uint64
	threads     []*Thread
	readyq      []*Thread
	cur         *Thread
	live        int
	started     bool
	aborting    bool
	runErr      error
	schedCh     chan struct{}
	Stats       Stats
	lockHoldups uint64 // see CountHoldup

	// Tracer, when non-nil, receives runtime events (dispatches,
	// preemptions, restarts, blocking).
	Tracer obs.Sink
}

// Thread is the scheduler-visible identity of a green thread.
type Thread struct {
	ID   int
	Name string

	Suspensions uint64
	Restarts    uint64

	fn          func(*Env)
	resumeCh    chan struct{}
	env         *Env
	done        bool
	killed      bool
	blocked     bool
	wakePending bool
}

// String implements fmt.Stringer.
func (t *Thread) String() string { return fmt.Sprintf("thread %d (%s)", t.ID, t.Name) }

// Done reports whether the thread will never run again — it returned,
// panicked, or was killed by fault injection. A done thread holding a lock
// has orphaned it; recoverable protocols use this to decide a repair.
func (t *Thread) Done() bool { return t.done }

// New creates a processor.
func New(cfg Config) *Processor {
	if cfg.Profile == nil {
		cfg.Profile = arch.R3000()
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 50000
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 44
	}
	return &Processor{
		profile:  cfg.Profile,
		quantum:  cfg.Quantum,
		jitter:   cfg.JitterSeed,
		maxCyc:   cfg.MaxCycles,
		faultAt:  chaos.NewCursor(cfg.Faults),
		watchdog: cfg.Watchdog,
		schedCh:  make(chan struct{}),
	}
}

// Profile returns the processor's cost model.
func (p *Processor) Profile() *arch.Profile { return p.profile }

// Clock returns the current virtual time in cycles.
func (p *Processor) Clock() uint64 { return p.clock }

// Micros returns elapsed virtual time in microseconds.
func (p *Processor) Micros() float64 { return p.profile.Micros(p.clock) }

// Go adds a thread to the processor. It may be called before Run (to set up
// the initial threads) or from inside a running thread via Env.Fork.
func (p *Processor) Go(name string, fn func(*Env)) *Thread {
	t := &Thread{
		ID:       len(p.threads),
		Name:     name,
		fn:       fn,
		resumeCh: make(chan struct{}),
	}
	t.env = &Env{p: p, t: t}
	p.threads = append(p.threads, t)
	p.readyq = append(p.readyq, t)
	p.live++
	p.Stats.Forks++
	p.trace(obs.KindFork, p.cur, uint64(t.ID))
	go p.threadBody(t)
	return t
}

// Threads returns every thread ever created.
func (p *Processor) Threads() []*Thread { return p.threads }

// Errors returned by Run.
var (
	ErrDeadlock = errors.New("uniproc: deadlock: blocked threads but none ready")
	ErrBudget   = errors.New("uniproc: cycle budget exceeded")
	// ErrGuestPanic wraps a panic that escaped guest code; match with
	// errors.Is. Run never re-panics and never swallows the first panic.
	ErrGuestPanic = errors.New("uniproc: guest panic")
	// ErrLivelock wraps a watchdog abort; the concrete error is a
	// *LivelockError naming the thread and its restart count.
	ErrLivelock = errors.New("uniproc: restart livelock")
	// ErrMachineCrash reports an injected whole-machine crash
	// (chaos.Action.Crash): the run stops where it stood, as if power were
	// cut. Unlike a thread kill, no thread survives a crash.
	ErrMachineCrash = errors.New("uniproc: injected machine crash")
)

// LivelockError reports a Restartable sequence that restarted Restarts
// consecutive times without completing: the §3.1 hazard of a sequence
// longer than the quantum.
type LivelockError struct {
	Thread   int
	Name     string
	Restarts uint64
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("uniproc: restart livelock: thread %d (%s) restarted its sequence %d times without completing (sequence longer than the quantum, §3.1)",
		e.Thread, e.Name, e.Restarts)
}

func (e *LivelockError) Unwrap() error { return ErrLivelock }

// abortSignal unwinds a green thread's stack during shutdown. It never
// escapes the package.
type abortSignal struct{}

// restartSignal aborts a restartable sequence for re-entry. It never
// escapes Env.Restartable.
type restartSignal struct{}

// killSignal unwinds a thread killed by an injected thread-death fault.
// Unlike abortSignal the processor keeps running: only this thread dies.
// It never escapes the package.
type killSignal struct{}

func (p *Processor) threadBody(t *Thread) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case abortSignal, killSignal:
				// Orderly unwinding; not a guest bug.
			default:
				if p.runErr == nil {
					p.runErr = fmt.Errorf("%w: %v panicked: %v", ErrGuestPanic, t, r)
				}
			}
		}
		t.done = true
		p.live--
		p.trace(obs.KindExit, t, 0)
		p.schedCh <- struct{}{}
	}()
	<-t.resumeCh
	if p.aborting {
		panic(abortSignal{})
	}
	t.fn(t.env)
}

// Run schedules threads until all have finished. It returns an error on
// deadlock, budget exhaustion, or a panic in guest code.
func (p *Processor) Run() error {
	if p.started {
		return errors.New("uniproc: Run called twice")
	}
	p.started = true
	for {
		if p.runErr != nil || p.clock > p.maxCyc || (len(p.readyq) == 0 && p.live > 0) {
			break
		}
		if p.live == 0 {
			return nil
		}
		t := p.readyq[0]
		p.readyq = p.readyq[1:]
		p.dispatch(t)
		t.resumeCh <- struct{}{}
		<-p.schedCh
		p.cur = nil
	}
	// Abnormal exit: unwind every remaining thread.
	err := p.runErr
	if err == nil {
		if p.clock > p.maxCyc {
			err = ErrBudget
		} else {
			err = ErrDeadlock
		}
	}
	p.abortAll()
	return err
}

func (p *Processor) abortAll() {
	p.aborting = true
	for _, t := range p.threads {
		if t.done {
			continue
		}
		t.resumeCh <- struct{}{}
		<-p.schedCh
	}
}

func (p *Processor) dispatch(t *Thread) {
	p.cur = t
	p.Stats.Switches++
	p.trace(obs.KindDispatch, t, 0)
	p.clock += uint64(p.profile.ResumeCycles)
	q := p.quantum
	if p.jitter != 0 {
		// xorshift64: deterministic per-slice jitter of up to ±25%.
		x := p.jitter
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.jitter = x
		span := q / 2
		if span > 0 {
			q = q - q/4 + x%span
		}
	}
	if act, ok := p.faultAt.At(chaos.PointDispatch, p.Stats.Switches); ok && act.Jitter != 0 {
		p.Stats.Injected++
		p.trace(obs.KindInject, t, act.Bits())
		nq := int64(q) + act.Jitter
		if nq < 1 {
			nq = 1
		}
		q = uint64(nq)
	}
	p.sliceEnd = p.clock + q
}

// park hands the baton back to the scheduler and blocks until redispatched.
// Must be called on t's goroutine while t holds the baton.
func (p *Processor) park(t *Thread) {
	p.schedCh <- struct{}{}
	<-t.resumeCh
	if p.aborting {
		panic(abortSignal{})
	}
}

// MemOps returns the number of Load/Store injection points passed so far —
// the ordinal stream consulted at chaos.PointMemOp. A reference run's final
// MemOps bounds the meaningful N for a chaos.OneShot kill schedule.
func (p *Processor) MemOps() uint64 { return p.memOps }

// PersistOps returns the number of Flush/Fence injection points passed so
// far — the ordinal stream consulted at chaos.PointPersist. A reference
// run's final PersistOps bounds the meaningful N for a crash schedule
// that enumerates flush/fence boundaries.
func (p *Processor) PersistOps() uint64 { return p.persistOps }

// EnablePersistence turns on the two-tier NVRAM persistence model: every
// Store/Commit lands in a volatile tier, reaches the non-volatile tier
// only through Env.Flush + Env.Fence, and a volatile crash (Crash with
// chaos.CrashVolatile) reverts every unfenced word to its NVM image.
// Word granularity stands in for vmach's 64-byte lines: this substrate
// has no addresses, and the paper's argument needs only "some stores
// survive a crash and some do not".
// Must be called before Run.
func (p *Processor) EnablePersistence() {
	p.persist = true
	p.nvShadow = make(map[*Word]Word)
	p.nvPending = make(map[*Word]bool)
	p.nvOrder = nil
}

// shadowWord records w's NVM image before its first diverging store and
// cancels any outstanding write-back — the conservative model never
// persists a value the guest has since overwritten.
func (p *Processor) shadowWord(w *Word) {
	if !p.persist {
		return
	}
	if _, dirty := p.nvShadow[w]; !dirty {
		p.nvShadow[w] = *w
	}
	delete(p.nvPending, w)
}

// NVPeek reads the non-volatile tier: what w would hold after a crash
// right now. Harness-only, like direct Word access.
func (p *Processor) NVPeek(w *Word) Word {
	if old, dirty := p.nvShadow[w]; dirty {
		return old
	}
	return *w
}

// NVDiverged returns the lowest index i at which ws[i]'s NVM image
// differs from its volatile contents, with that image, or -1. Only a
// shadowed word can differ, so it visits the shadowed words, not ws: an
// audit of a long region after a fence costs nothing here. Harness-only,
// like NVPeek.
func (p *Processor) NVDiverged(ws []Word) (int, Word) {
	first, img := -1, Word(0)
	if len(ws) == 0 {
		return first, img
	}
	// Only pointer arithmetic places a shadowed word in ws; the address
	// is compared, never dereferenced.
	base, size := uintptr(unsafe.Pointer(&ws[0])), unsafe.Sizeof(ws[0])
	for w, nv := range p.nvShadow {
		off := uintptr(unsafe.Pointer(w)) - base
		if i := int(off / size); off < uintptr(len(ws))*size && nv != ws[i] && (first < 0 || i < first) {
			first, img = i, nv
		}
	}
	return first, img
}

// Crash applies a crash of kind k to the persistence tiers, word by
// word, and reports whether the processor could honour it: a volatile or
// torn crash needs the persistence model, and without it leaves memory
// as a clean crash does.
//   - clean: every committed store survives, and the volatile tier
//     becomes durable (as under eADR);
//   - volatile: every word never fenced reverts to its NVM image;
//   - torn: as volatile, except that a prefix of the pending words, in
//     flush order and of a length derived from h, drains first. Word
//     granularity stands in for vmach's partial 64-byte line drain: the
//     failure mode the journal's checksums must catch is "some of the
//     stores I flushed before one fence survived and some did not".
//
// Either way the persistence buffer empties.
func (p *Processor) Crash(k chaos.CrashKind, h uint64) bool {
	if !p.persist || k == chaos.CrashNone {
		return k <= chaos.CrashClean
	}
	switch k {
	case chaos.CrashClean:
		clear(p.nvShadow)
	case chaos.CrashTorn:
		pending := p.pendingOrdered()
		if len(pending) > 0 {
			n := chaos.Derive(h, uint64(len(pending))) % uint64(len(pending)+1)
			for _, w := range pending[:n] {
				delete(p.nvShadow, w) // drained: the volatile value is now durable
			}
		}
	}
	for w, old := range p.nvShadow {
		*w = old
	}
	clear(p.nvShadow)
	clear(p.nvPending)
	p.nvOrder = p.nvOrder[:0]
	return true
}

// pendingOrdered returns the live pending words in flush order, dropping
// stale nvOrder entries (cancelled or already-drained write-backs).
func (p *Processor) pendingOrdered() []*Word {
	if len(p.nvPending) == 0 {
		return nil
	}
	out := make([]*Word, 0, len(p.nvPending))
	seen := make(map[*Word]bool, len(p.nvPending))
	for _, w := range p.nvOrder {
		if p.nvPending[w] && !seen[w] {
			out = append(out, w)
			seen[w] = true
		}
	}
	return out
}

// CountHoldup records that a thread found a lock held by a suspended
// holder; used to reproduce the paper's §5.3 "inflated critical section"
// observation. Exposed via HoldupCount.
func (p *Processor) CountHoldup() { p.lockHoldups++ }

// HoldupCount returns the number of lock-found-held events recorded.
func (p *Processor) HoldupCount() uint64 { return p.lockHoldups }

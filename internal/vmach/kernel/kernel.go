// Package kernel implements the operating-system half of the simulated
// uniprocessor: thread contexts, a preemptive round-robin scheduler driven
// by a timer quantum, syscalls, demand paging, and — the subject of the
// paper — the recovery machinery for restartable atomic sequences.
//
// Three recovery strategies are provided, mirroring the paper:
//
//   - Registration: Mach 3.0 style (§3.1). The address space registers a
//     single PC range; a thread suspended inside it is resumed at its start.
//   - Designated: Taos style (§3.2). The kernel recognizes interrupted
//     atomic sequences by inspecting the suspended thread's instruction
//     stream with a two-stage opcode-hash + landmark check.
//   - UserLevel: §4.1's alternative. The kernel vectors every resumed
//     thread through a user-level trampoline that performs its own check.
//
// The kernel also provides kernel-emulated Test-And-Set (§2.3) as a syscall
// executed with interrupts disabled, and honours the i860-style hardware
// lock bit (§7) by rolling a suspended thread back to its lockb instruction.
package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
)

// Syscall numbers (passed in v0).
const (
	SysExit         = 0 // a0 = exit code
	SysYield        = 1
	SysWrite        = 2 // a0 = word appended to the console
	SysRasRegister  = 3 // a0 = start, a1 = length in bytes; v0 = 0 ok / -1 unsupported
	SysTas          = 4 // a0 = address; v0 = old value (kernel-emulated Test-And-Set)
	SysThreadCreate = 5 // a0 = entry, a1 = argument, a2 = stack top; v0 = tid
	SysTime         = 6 // v0 = low 32 bits of cycle counter, v1 = high
	SysSetHandler   = 7 // a0 = user-level resume trampoline address

	// Taos-style mutex support (§3.2, Figure 5): the designated acquire
	// and release sequences handle the common case inline; the infrequent
	// cases trap to the kernel. The mutex word holds 0 (unlocked),
	// MutexLocked (locked, no waiters) or MutexLocked|MutexWaiters.
	SysMutexSlow = 8 // a0 = mutex address; returns owning the mutex
	SysMutexWake = 9 // a0 = mutex address; wakes one waiter (handoff)

	// Recoverable-mutual-exclusion support: the liveness oracle. A lock
	// word naming a dead owner is orphaned and may be repaired.
	SysThreadAlive = 10 // a0 = tid; v0 = 1 if the thread can still run, else 0

	// SMP support: which CPU is the caller running on? The hybrid lock
	// (paper §7) indexes its per-CPU claim word with this. Threads never
	// migrate between CPUs, so the answer is stable for a thread's life.
	SysCPU = 11 // v0 = CPU number (0 on a uniprocessor)

	// Cross-CPU liveness: like SysThreadAlive but a0 is a *global*
	// thread id (cpu*stride + local id, the smp.GlobalID encoding). A
	// queue lock's qnodes name threads on other CPUs; repairing a
	// queue after a death needs an oracle that can answer for them.
	// On a standalone kernel global and local ids coincide.
	SysThreadAliveG = 12 // a0 = global tid; v0 = 1 if alive, else 0
)

// Mutex word values for the Taos-style designated mutex.
const (
	MutexLocked  = 0x8000_0000 // locked-but-no-waiters (paper §3.2)
	MutexWaiters = 0x0000_0001
)

// ThreadState is a thread's scheduler state.
type ThreadState int

const (
	StateReady ThreadState = iota
	StateRunning
	StateBlocked
	StateDone
	StateFaulted
	StateKilled // terminated by fault injection or KillThread; not a guest bug
)

func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	case StateFaulted:
		return "faulted"
	case StateKilled:
		return "killed"
	}
	return "unknown"
}

// Thread is one kernel-scheduled thread: its ID, which is its index in
// the kernel's thread table, and the state a checkpoint records. The
// live thread holds that state in the ThreadImage a Snapshot carries, so
// one walk serves both.
type Thread struct {
	ID int
	ThreadImage
}

// faulted stops the thread on fault f.
func (t *Thread) faulted(f *vmach.Fault) {
	t.State = StateFaulted
	t.FaultKind, t.FaultAddr = int32(f.Kind), f.Addr
}

// ThreadImage is the state of one thread: everything the scheduler and
// the recovery machinery know about it, including the watchdog streak.
// A live Thread holds one, and a Snapshot a copy.
type ThreadImage struct {
	// AS identifies the thread's address space. Threads share simulated
	// memory regardless (the simulator models one physical memory), but
	// RAS registration is per address space, as in Mach (§3.1).
	AS    int32
	Ctx   vmach.Context
	State ThreadState

	ExitCode isa.Word
	// FaultKind and FaultAddr record the fault that stopped a
	// StateFaulted thread; FaultKind is -1 while it has none.
	FaultKind int32
	FaultAddr uint32

	// Per-thread accounting.
	Suspensions uint64 // involuntary suspensions (preemption, page fault)
	Restarts    uint64 // RAS rollbacks applied to this thread

	// NeedsCheck marks a thread whose PC check was deferred to resume
	// time (CheckAtResume policy, or user-level detection).
	NeedsCheck bool

	// Restart-livelock watchdog state: SeqRestarts counts consecutive
	// rollbacks to SeqPC with no intervening suspension outside the
	// sequence; Extended records that the one-time quantum extension was
	// spent; BoostSlice grants the extension at the next dispatch.
	SeqPC       uint32
	SeqRestarts uint64
	Extended    bool
	BoostSlice  bool
}

// CheckTime selects when the PC check runs (§4.1 "Placement of the PC
// check"): Mach checks at suspension, Taos at resume.
type CheckTime int

const (
	CheckAtSuspend CheckTime = iota // Mach: return PC conveniently at hand
	CheckAtResume                   // Taos: user memory safely touchable
)

func (c CheckTime) String() string {
	if c == CheckAtResume {
		return "resume"
	}
	return "suspend"
}

// Stats aggregates kernel-wide accounting, matching the columns of the
// paper's Table 3.
type Stats struct {
	Suspensions    uint64 // involuntary thread suspensions
	Preemptions    uint64 // timer-driven subset of the above
	PageFaults     uint64
	Restarts       uint64 // RAS rollbacks performed
	EmulTraps      uint64 // kernel-emulated atomic operations
	Syscalls       uint64
	Switches       uint64 // context switches
	CheckRejects   uint64 // designated checks that failed stage 1 or 2
	HardwareResets uint64 // i860 lock-bit rollbacks
	SlowAcquires   uint64 // out-of-line mutex acquisitions (§3.2)
	MutexWakes     uint64 // kernel handoffs to a mutex waiter

	// Chaos and degradation accounting.
	Spurious        uint64 // injected spurious suspensions
	Injected        uint64 // chaos actions applied (any kind)
	WatchdogExtends uint64 // one-time quantum extensions granted
	WatchdogAborts  uint64 // livelocks aborted with a diagnostic
	Kills           uint64 // threads killed (fault injection or KillThread)
}

// Config parametrizes a kernel instance.
type Config struct {
	Profile  *arch.Profile
	Strategy Strategy  // nil means NoRecovery
	CheckAt  CheckTime // when the PC check runs
	Quantum  uint64    // timeslice in cycles (0: default 10000)
	// MaxCycles aborts a run that exceeds the budget. Default 2^40.
	MaxCycles uint64
	// Faults, when non-nil, decides the faults at every dispatch,
	// involuntary suspension, and retired instruction; the requested
	// faults (forced preemptions, spurious suspensions, page evictions,
	// timeslice jitter) are applied before the next guest instruction
	// runs. The kernel calls it only where its Next hint allows a fault.
	Faults chaos.Injector
	// Watchdog configures restart-livelock detection: a thread rolled back
	// to the same sequence start Limit() times in a row, with no
	// suspension outside the sequence in between, is handled by policy —
	// one quantum extension (WatchdogExtend) or an aborted run carrying a
	// *LivelockError diagnostic (WatchdogAbort).
	Watchdog chaos.Watchdog
	// Memory, when non-nil, backs the kernel's machine instead of a fresh
	// memory — the CPUs of an SMP complex share one physical memory this
	// way (internal/vmach/smp).
	Memory *vmach.Memory
	// CPUID identifies which CPU of an SMP complex this kernel schedules
	// (zero on a plain uniprocessor). It stamps trace events and answers
	// SysCPU.
	CPUID int
}

// Kernel multiplexes threads onto one vmach.Machine.
type Kernel struct {
	M        *vmach.Machine
	Profile  *arch.Profile
	Strategy Strategy
	CheckAt  CheckTime
	Quantum  uint64
	// CPUID is which CPU of an SMP complex this kernel is (0 standalone).
	CPUID int

	maxCycles uint64
	faultAt   chaos.Cursor
	watchdog  chaos.Watchdog
	steps     uint64         // retired-instruction ordinal for PointStep
	livelock  *LivelockError // set by a watchdog abort; ends the run
	crashed   error          // set by an injected machine crash; ends the run

	threads []*Thread
	runq    []*Thread
	cur     *Thread
	sliceAt uint64 // cycle count at which the running thread's slice ends

	// Mach-style registration state: exactly one sequence per address
	// space at a time (§3.1), sorted by address space. Registering again
	// replaces the previous sequence for that space.
	ras []RasImage

	// User-level detection state (§4.1).
	userHandler    uint32
	hasUserHandler bool

	// batching marks a quiet batch in progress; steps is then biased by
	// the batch's starting instruction count (see runQuiet). It sits in
	// the padding after hasUserHandler: every mcheck schedule and cold
	// boot allocates a Kernel, and 512 bytes is a size class.
	batching bool

	// Taos-style mutex wait queues, keyed by mutex word address.
	waitq   map[uint32][]*Thread
	blocked int

	Stats   Stats
	Console []isa.Word

	// PeerAlive, when non-nil, answers SysThreadAliveG for global
	// thread ids that may live on other CPUs. The SMP system installs
	// one per kernel; standalone kernels leave it nil and fall back to
	// the local thread table (global == local on one CPU).
	PeerAlive func(gtid int) bool

	// Tracer, when non-nil, receives kernel events (dispatches,
	// preemptions, restarts, syscalls, faults).
	Tracer obs.Sink

	// Profiler, when non-nil, receives one sample per retired guest
	// instruction and one note per kernel-time charge, attributing
	// virtual cycles to guest PCs and symbols. Use AttachProfiler to
	// install it with the program's symbol table.
	Profiler *obs.CycleProfiler
}

// New creates a kernel and machine from cfg.
func New(cfg Config) *Kernel {
	k := new(Kernel)
	k.reset(cfg)
	return k
}

// reset returns k to the state New(cfg) builds, so New is reset applied
// to a zero Kernel. Every field starts over, the per-life hooks (Tracer,
// Profiler, PeerAlive, death callbacks) included; what carries over is
// allocation only: the machine struct and its write buffer, the thread,
// run-queue and registration slices, the wait-queue map, and the Thread
// structs past the thread table's end, which SpawnAS re-initialises.
func (k *Kernel) reset(cfg Config) {
	if cfg.Profile == nil {
		cfg.Profile = arch.R3000()
	}
	if cfg.Strategy == nil {
		cfg.Strategy = NoRecovery{}
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 10000
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	m := k.M
	if m == nil {
		m = new(vmach.Machine)
	}
	m.Reset(cfg.Profile, cfg.Memory)
	threads, runq, ras, waitq := k.threads[:0], k.runq[:0], k.ras[:0], k.waitq
	if waitq == nil {
		waitq = make(map[uint32][]*Thread)
	}
	clear(waitq)
	*k = Kernel{
		M:         m,
		Profile:   cfg.Profile,
		Strategy:  cfg.Strategy,
		CheckAt:   cfg.CheckAt,
		Quantum:   cfg.Quantum,
		CPUID:     cfg.CPUID,
		maxCycles: cfg.MaxCycles,
		faultAt:   chaos.NewCursor(cfg.Faults),
		watchdog:  cfg.Watchdog,
		threads:   threads,
		runq:      runq,
		ras:       ras,
		waitq:     waitq,
	}
}

// Load copies an assembled program into memory and installs the program's
// predecoded text for instruction fetch.
func (k *Kernel) Load(p *asm.Program) {
	k.M.Mem.LoadProgramWords(p.TextBase, p.Text)
	k.M.Mem.LoadProgramWords(p.DataBase, p.Data)
	k.M.Mem.SetText(p.TextBase, p.Predecoded())
}

// Spawn creates a ready thread in address space 0 starting at entry with
// the given stack top and up to three arguments in a0-a2.
func (k *Kernel) Spawn(entry, stackTop uint32, args ...isa.Word) *Thread {
	return k.SpawnAS(0, entry, stackTop, args...)
}

// SpawnAS creates a ready thread in the given address space.
func (k *Kernel) SpawnAS(as int, entry, stackTop uint32, args ...isa.Word) *Thread {
	// A reset leaves the previous life's threads past the table's end;
	// the next one is re-initialised in place.
	id := len(k.threads)
	var t *Thread
	if id < cap(k.threads) {
		t = k.threads[:id+1][id]
	}
	if t == nil {
		t = new(Thread)
	}
	*t = Thread{ID: id, ThreadImage: ThreadImage{AS: int32(as), FaultKind: -1}}
	t.Ctx.PC = entry
	t.Ctx.Regs[isa.RegSP] = stackTop
	for i, a := range args {
		if i > 2 {
			break
		}
		t.Ctx.Regs[isa.RegA0+i] = a
	}
	k.threads = append(k.threads, t)
	k.runq = append(k.runq, t)
	return t
}

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// ThreadAlive reports whether the thread with the given local id can
// still run — the same answer SysThreadAlive gives the guest. Unknown
// ids are dead.
func (k *Kernel) ThreadAlive(id int) bool {
	if id < 0 || id >= len(k.threads) {
		return false
	}
	switch k.threads[id].State {
	case StateDone, StateFaulted, StateKilled:
		return false
	}
	return true
}

// ErrBudget is returned when a run exceeds its cycle budget.
var ErrBudget = errors.New("kernel: cycle budget exceeded")

// ErrDeadlock is returned when threads remain blocked with nothing runnable.
var ErrDeadlock = errors.New("kernel: deadlock: blocked threads but none runnable")

// ErrLivelock matches (with errors.Is) every watchdog-abort error.
var ErrLivelock = errors.New("restart livelock")

// LivelockError is the watchdog-abort diagnostic: the named thread kept
// restarting one restartable atomic sequence without forward progress —
// the §3.1 hazard of a sequence that does not fit the scheduling quantum
// (or whose recovery path keeps refaulting, §4.2).
type LivelockError struct {
	Thread   int
	SeqPC    uint32 // start address of the livelocked sequence
	Restarts uint64 // consecutive restarts observed when the watchdog fired
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"kernel: restart livelock: thread %d restarted the sequence at pc=%#x %d times without progress (sequence longer than the quantum, §3.1)",
		e.Thread, e.SeqPC, e.Restarts)
}

// Unwrap makes errors.Is(err, ErrLivelock) hold.
func (e *LivelockError) Unwrap() error { return ErrLivelock }

// ErrMachineCrash matches (with errors.Is) the error from an injected
// whole-machine crash: the run stops where it stood, as if power were cut.
// A checkpoint taken at the crash restores to the exact pre-crash state
// and replays identically.
var ErrMachineCrash = errors.New("kernel: injected machine crash")

// Run schedules threads until every thread has exited. It returns an error
// if any thread faulted or the cycle budget was exceeded.
func (k *Kernel) Run() error {
	for {
		if _, fin, err := k.stepOnce(chaos.Never); fin {
			return err
		}
	}
}

// RunSteps advances the run until n more instructions retire (or the run
// ends first), reporting whether the run finished. Stopping by retired
// instructions — not wall cycles — gives checkpoints a deterministic cut
// point: the same program stopped at the same step always captures the
// same state.
func (k *Kernel) RunSteps(n uint64) (finished bool, err error) {
	target := k.M.Stats.Instructions + n
	for k.M.Stats.Instructions < target {
		// A batch ends on the instruction that reaches target at the latest.
		if _, fin, e := k.stepOnce(target - k.M.Stats.Instructions - 1); fin {
			return true, e
		}
	}
	return false, nil
}

// StepOne performs one scheduler iteration — dispatch or one guest
// instruction — reporting whether the run finished and its verdict. It is
// the instruction-granularity stepping hook the SMP round-robin scheduler
// drives; Run is equivalent to calling it until finished. StepOne is
// StepUpTo(1).
func (k *Kernel) StepOne() (finished bool, err error) {
	_, finished, err = k.stepOnce(0)
	return finished, err
}

// StepUpTo does the work of up to n StepOne calls in one scheduler
// iteration: a dispatch, or a quiet batch of at most n-1 instructions
// after which the kernel would only count a step, followed by one
// instruction serviced as StepOne services it. It returns how many
// StepOne calls that work stood for (1 plus the batch's quiet
// instructions, never more than n) and the run's verdict once finished.
// A caller that interleaves at StepOne grain — the model checker — caps
// n at its next scheduling decision and so sees every state it would
// have seen stepping singly. An n of 0 counts as 1.
func (k *Kernel) StepUpTo(n uint64) (steps uint64, finished bool, err error) {
	quiet, finished, err := k.stepOnce(max(n, 1) - 1)
	return quiet + 1, finished, err
}

// stepOnce performs one scheduler iteration: dispatch if no thread is
// running, otherwise execute the running thread's instructions up to one
// the kernel must see — passing at most limit quiet ones before it — and
// service whatever that one raised. It reports how many quiet
// instructions it passed, and whether the run finished (with the run's
// verdict).
func (k *Kernel) stepOnce(limit uint64) (quiet uint64, finished bool, err error) {
	if k.livelock != nil {
		return 0, true, k.livelock
	}
	if k.crashed != nil {
		return 0, true, k.crashed
	}
	if k.cur == nil {
		if len(k.runq) == 0 {
			if k.blocked > 0 {
				return 0, true, ErrDeadlock
			}
			return 0, true, k.finish()
		}
		k.dispatch()
		return 0, false, nil // re-test livelock: a resume-time check may have aborted
	}
	if k.M.Stats.Cycles > k.maxCycles {
		return 0, true, ErrBudget
	}

	var ev vmach.Event
	switch {
	case k.Profiler != nil:
		pc, cyc := k.cur.Ctx.PC, k.M.Stats.Cycles
		ev = k.M.Step(&k.cur.Ctx)
		k.profileStep(pc, k.M.Stats.Cycles-cyc)
	case limit == 0:
		ev = k.M.Step(&k.cur.Ctx)
	default:
		ev, quiet = k.runQuiet(limit)
	}
	switch ev.Kind {
	case vmach.EventNone:
		// Timer: preempt at slice end unless the i860 lock bit defers
		// interrupts (its budget bounds the deferral).
		if k.M.Stats.Cycles >= k.sliceAt && !k.cur.Ctx.LockActive {
			k.preempt()
		} else if !k.cur.Ctx.LockActive {
			k.steps++
			if act, ok := k.faultAt.At(chaos.PointStep, k.steps); ok {
				k.injectStep(act)
			}
		}

	case vmach.EventSyscall:
		k.syscall(ev)

	case vmach.EventBreak:
		k.cur.State = StateDone
		k.trace(obs.KindExit, k.cur, 0)
		k.cur = nil

	case vmach.EventFault:
		k.fault(ev.Fault)
	}
	return quiet, false, nil
}

// runQuiet executes the running thread through its quiet window: the
// instructions after which the kernel would only count a step, because
// the slice has time left, the cycle budget holds, the lock bit is clear
// and the fault cursor promises no step fault below its hint. It passes
// at most limit of them and returns the event of the instruction that
// ended the window, which the caller services as if it were the only one,
// and how many quiet instructions it passed before it.
func (k *Kernel) runQuiet(limit uint64) (vmach.Event, uint64) {
	var quiet uint64
	if next := k.faultAt.Quiet(chaos.PointStep); next > k.steps+1 {
		quiet = min(limit, next-k.steps-1)
	}
	until := k.sliceAt
	if k.maxCycles < until {
		until = k.maxCycles + 1
	}
	// While the batch runs, steps holds the count less the instruction
	// count at the next instruction's start, so Steps can add the live
	// count to it; the bias comes off with the batch's quiet instructions.
	base := k.M.Stats.Instructions + 1
	k.steps -= base
	k.batching = true
	ev, n := k.M.Run(&k.cur.Ctx, quiet, until)
	k.steps += base + n
	k.batching = false
	return ev, n
}

func (k *Kernel) finish() error {
	for _, t := range k.threads {
		if t.State == StateFaulted {
			var f *vmach.Fault // nil for a watchdog abort, which records none
			if t.FaultKind >= 0 {
				f = &vmach.Fault{Kind: vmach.FaultKind(t.FaultKind), Addr: t.FaultAddr}
			}
			return fmt.Errorf("kernel: thread %d faulted: %v (pc=%#x)", t.ID, f, t.Ctx.PC)
		}
	}
	return nil
}

// dispatch pops the next ready thread and begins its timeslice.
func (k *Kernel) dispatch() {
	// Pop by copying down, not by reslicing: a resliced queue creeps along
	// its backing array and every later append reallocates it.
	t := k.runq[0]
	n := copy(k.runq, k.runq[1:])
	k.runq[n] = nil
	k.runq = k.runq[:n]
	t.State = StateRunning
	k.cur = t
	// A context switch invalidates the CPU's ll/sc reservation (the
	// R4000's LLbit is cleared by eret): an interrupted ll/sc pair must
	// retry, never succeed against another thread's reservation.
	k.M.ClearReservation()
	k.Stats.Switches++
	k.trace(obs.KindDispatch, t, 0)
	k.chargeKernel(uint64(k.Profile.ResumeCycles))

	if t.NeedsCheck {
		t.NeedsCheck = false
		k.runCheck(t)
	}
	quantum := k.Quantum
	boosted := false
	if t.BoostSlice {
		// Spend the watchdog's one-time extension: a slice long enough for
		// a sequence that does not fit the ordinary quantum.
		t.BoostSlice = false
		boosted = true
		quantum *= chaos.ExtendFactor
	}
	k.sliceAt = k.M.Stats.Cycles + quantum
	if act, ok := k.faultAt.At(chaos.PointDispatch, k.Stats.Switches); ok {
		k.Stats.Injected++
		k.trace(obs.KindInject, t, act.Bits())
		if act.EvictCode {
			k.M.Mem.SetPresent(t.Ctx.PC, false)
		}
		if act.EvictData {
			k.M.Mem.SetPresent(t.Ctx.Regs[isa.RegSP], false)
		}
		// Timeslice jitter; never applied to a watchdog-extended slice
		// (the extension is a liveness guarantee) and never shrinking a
		// slice to nothing.
		if act.Jitter != 0 && !boosted {
			at := int64(k.sliceAt) + act.Jitter
			if min := int64(k.M.Stats.Cycles) + 1; at < min {
				at = min
			}
			k.sliceAt = uint64(at)
		}
	}
}

// injectStep applies a chaos action at a retired-instruction boundary.
func (k *Kernel) injectStep(act chaos.Action) {
	t := k.cur
	k.Stats.Injected++
	k.trace(obs.KindInject, t, act.Bits())
	if act.EvictCode {
		k.M.Mem.SetPresent(t.Ctx.PC, false)
	}
	if act.EvictData {
		k.M.Mem.SetPresent(t.Ctx.Regs[isa.RegSP], false)
	}
	switch {
	case act.Crash != chaos.CrashNone:
		// Memory takes the crash first, so everything after the halt —
		// checkpoints, recovery reboots — sees what survived it. A kind
		// the memory cannot honour is announced, so a trace reader can
		// tell the schedule did not get the semantics it asked for.
		if !k.M.Mem.Crash(act.Crash, k.steps) {
			k.trace(obs.KindCrashDegraded, t, act.Bits())
		}
		k.crash()
	case act.Kill:
		k.reap(t)
		k.cur = nil
	case act.Preempt:
		k.preempt()
	case act.SpuriousSuspend:
		k.Stats.Spurious++
		k.trace(obs.KindPreempt, t, 1)
		k.suspend(t)
		k.runq = append(k.runq, t)
		k.cur = nil
	}
}

// crash records an injected whole-machine crash. k.cur is left in place:
// a checkpoint taken at the crash captures the machine exactly as it
// stood, so a restore followed by Run replays the uncrashed remainder.
func (k *Kernel) crash() {
	k.trace(obs.KindCrash, k.cur, k.steps)
	k.crashed = &crashError{step: k.steps}
}

// crashError is an injected crash's verdict, "kernel: injected machine
// crash at step N"; it unwraps to ErrMachineCrash. A crash-restart
// campaign builds one per boot, so it is rendered only when read.
type crashError struct{ step uint64 }

func (e *crashError) Error() string {
	return ErrMachineCrash.Error() + " at step " + strconv.FormatUint(e.step, 10)
}

func (e *crashError) Unwrap() error { return ErrMachineCrash }

// reap finalizes a killed thread. Death strikes between instructions, so
// the context freezes wherever the thread stood — possibly inside a
// restartable sequence, possibly owning a lock. Everything the scheduler
// and recovery machinery associate with the thread is torn down: it will
// never be dispatched, checked, or rolled back again.
func (k *Kernel) reap(t *Thread) {
	t.State = StateKilled
	t.NeedsCheck = false
	t.BoostSlice = false
	t.Ctx.LockActive = false
	t.SeqRestarts = 0
	// A kill invalidates the CPU's ll/sc reservation just as a context
	// switch does: the dead thread's pending reservation must not let a
	// later thread's sc succeed without its own ll.
	k.M.ClearReservation()
	k.Stats.Kills++
	k.chargeKernel(uint64(k.Profile.SuspendCycles))
	k.trace(obs.KindKill, t, 0)
	// Unregister the address space's sequence when its last live thread
	// dies: registration belongs to the space (§3.1), and a dead space
	// must not keep rolling back PCs that will never run.
	live := false
	for _, o := range k.threads {
		if o != t && o.AS == t.AS && o.State != StateDone && o.State != StateFaulted && o.State != StateKilled {
			live = true
			break
		}
	}
	if i, ok := k.rasEntry(t.AS); ok && !live {
		k.ras = slices.Delete(k.ras, i, i+1)
	}
}

// KillThread terminates thread id where it stands — the deterministic
// analogue of a chaos kill, used by rasvm's -kill-at flag and teardown
// tests. Unknown or already-terminated threads are an error.
func (k *Kernel) KillThread(id int) error {
	if id < 0 || id >= len(k.threads) {
		return fmt.Errorf("kernel: KillThread(%d): no such thread", id)
	}
	t := k.threads[id]
	switch t.State {
	case StateRunning:
		k.reap(t)
		k.cur = nil
	case StateReady:
		for i, q := range k.runq {
			if q == t {
				k.runq = append(k.runq[:i], k.runq[i+1:]...)
				break
			}
		}
		k.reap(t)
	case StateBlocked:
		for addr, q := range k.waitq {
			for i, w := range q {
				if w != t {
					continue
				}
				q = append(q[:i], q[i+1:]...)
				if len(q) == 0 {
					delete(k.waitq, addr)
				} else {
					k.waitq[addr] = q
				}
				k.blocked--
				break
			}
		}
		k.reap(t)
	default:
		return fmt.Errorf("kernel: KillThread(%d): thread already %v", id, t.State)
	}
	return nil
}

// Current returns the running thread, or nil between timeslices. Harness
// watchpoints use it to attribute stores to threads.
func (k *Kernel) Current() *Thread { return k.cur }

// CurrentID returns the running thread's ID, or -1 between timeslices.
func (k *Kernel) CurrentID() int {
	if k.cur == nil {
		return -1
	}
	return k.cur.ID
}

// Steps returns the retired-instruction ordinal consulted for
// chaos.PointStep injection — the kernel's fault-schedule cursor. It
// counts with or without an injector installed. A memory watcher that
// asks mid-batch gets the count as single-stepping would have it: the
// batch's instructions before the executing one have retired.
func (k *Kernel) Steps() uint64 {
	if k.batching {
		return k.steps + k.M.Stats.Instructions
	}
	return k.steps
}

// chargeKernel accounts kernel-path cycles on the global clock.
func (k *Kernel) chargeKernel(cy uint64) {
	k.M.Stats.Cycles += cy
	if k.Profiler != nil {
		k.Profiler.NoteKernel(cy)
	}
}

// AttachProfiler installs a cycle profiler seeded with the program's
// symbol table, so samples resolve to guest symbols rather than raw PCs.
// The kernel's threads start with empty call stacks, so the profiler
// drops the stacks of any kernel it sampled before (a rebooted kernel
// reuses thread IDs). A nil profiler leaves the kernel unprofiled.
func (k *Kernel) AttachProfiler(p *obs.CycleProfiler, prog *asm.Program) {
	if p == nil {
		return
	}
	p.ResetStacks()
	if prog != nil {
		syms := make([]obs.Symbol, 0, len(prog.Symbols))
		for name, addr := range prog.Symbols {
			syms = append(syms, obs.Symbol{Name: name, Addr: addr})
		}
		p.SetSymbols(syms)
	}
	k.Profiler = p
}

// profileStep feeds one retired instruction to the profiler. The shadow
// call stack needs to know whether the instruction transferred control
// into or out of a frame, so the retired word is re-decoded from memory
// (Peek ignores presence bits; the word was just fetched, so this reads
// what executed).
func (k *Kernel) profileStep(pc uint32, cycles uint64) {
	inst := isa.Decode(k.M.Mem.Peek(pc))
	kind := obs.SampleOp
	switch {
	case inst.Op == isa.OpJAL,
		inst.Op == isa.OpSpecial && inst.Funct == isa.FnJALR:
		kind = obs.SampleCall
	case inst.Op == isa.OpSpecial && inst.Funct == isa.FnJR && inst.Rs == isa.RegRA:
		kind = obs.SampleReturn
	}
	k.Profiler.Sample(k.cur.ID, pc, cycles, kind, k.cur.Ctx.PC)
}

// preempt suspends the running thread at a timer interrupt.
func (k *Kernel) preempt() {
	t := k.cur
	k.Stats.Preemptions++
	k.trace(obs.KindPreempt, t, 0)
	k.suspend(t)
	k.runq = append(k.runq, t)
	k.cur = nil
}

// suspend performs the involuntary-suspension bookkeeping shared by
// preemption and page faults: accounting, the suspension path cost, the
// hardware lock-bit rollback, and — under CheckAtSuspend — the RAS check.
func (k *Kernel) suspend(t *Thread) {
	t.State = StateReady
	t.Suspensions++
	k.Stats.Suspensions++
	k.chargeKernel(uint64(k.Profile.SuspendCycles))

	if act, ok := k.faultAt.At(chaos.PointSuspend, k.Stats.Suspensions); ok {
		k.Stats.Injected++
		k.trace(obs.KindInject, t, act.Bits())
		if act.EvictCode {
			k.M.Mem.SetPresent(t.Ctx.PC, false)
		}
		if act.EvictData {
			k.M.Mem.SetPresent(t.Ctx.Regs[isa.RegSP], false)
		}
	}

	// i860-style hardware restartable sequence: the kernel must back the
	// thread up to the lockb instruction (§7).
	if t.Ctx.LockActive {
		from := t.Ctx.PC
		t.Ctx.PC = t.Ctx.LockPC
		t.Ctx.LockActive = false
		t.Restarts++
		k.Stats.Restarts++
		k.Stats.HardwareResets++
		k.trace(obs.KindRestart, t, uint64(from))
	}

	switch k.CheckAt {
	case CheckAtSuspend:
		k.runCheck(t)
	case CheckAtResume:
		t.NeedsCheck = true
	}
}

// runCheck applies the configured recovery strategy to a suspended thread,
// charging its cost and handling the page faults the check itself can
// raise (§4.1: designated-sequence checks read user memory).
func (k *Kernel) runCheck(t *Thread) {
	for {
		before := t.Ctx.PC
		res := k.Strategy.Check(k, t)
		k.chargeKernel(uint64(res.Cost))
		if res.Fault != nil {
			// The check touched a non-present page: service the fault and
			// retry the check. Taos forbids this when coming *into* the
			// kernel; we model the §4 resolution by always being able to
			// fault the page in here.
			k.servicePage(res.Fault.Addr)
			continue
		}
		if res.Restarted {
			t.Restarts++
			k.Stats.Restarts++
			k.trace(obs.KindRestart, t, uint64(before))
			if k.watchdog.Policy != chaos.WatchdogOff {
				k.watchdogRestart(t)
			}
		} else {
			if k.Strategy.CanReject() {
				k.Stats.CheckRejects++
			}
			// A suspension that did not restart is forward progress: the
			// thread was outside any sequence, so the livelock streak ends
			// and the one-time extension becomes available again.
			t.SeqRestarts = 0
			t.Extended = false
		}
		return
	}
}

// watchdogRestart applies the restart-livelock policy after a rollback. A
// thread rolled back to the same sequence start Limit() times in a row,
// with no intervening suspension outside the sequence, is considered
// livelocked: under WatchdogExtend it is granted one extended timeslice
// (escalating to an abort if the livelock persists); under WatchdogAbort
// the run ends with a diagnostic naming the sequence.
func (k *Kernel) watchdogRestart(t *Thread) {
	start := t.Ctx.PC
	if t.SeqPC != start {
		t.SeqPC, t.SeqRestarts = start, 0
		t.Extended = false
	}
	t.SeqRestarts++
	if t.SeqRestarts < k.watchdog.Limit() {
		return
	}
	k.trace(obs.KindWatchdog, t, t.SeqRestarts)
	if k.watchdog.Policy == chaos.WatchdogExtend && !t.Extended {
		t.Extended = true
		t.BoostSlice = true
		t.SeqRestarts = 0
		k.Stats.WatchdogExtends++
		return
	}
	k.Stats.WatchdogAborts++
	t.State = StateFaulted
	k.livelock = &LivelockError{Thread: t.ID, SeqPC: start, Restarts: t.SeqRestarts}
}

// pageFaultCycles is charged to fault a page in.
const pageFaultCycles = 2000

func (k *Kernel) servicePage(addr uint32) {
	k.Stats.PageFaults++
	k.trace(obs.KindPageFault, k.cur, uint64(addr))
	k.chargeKernel(pageFaultCycles)
	k.M.Mem.SetPresent(addr, true)
}

// fault handles a user-mode fault event.
func (k *Kernel) fault(f *vmach.Fault) {
	t := k.cur
	switch f.Kind {
	case vmach.FaultNotPresent:
		// Demand paging: a page fault suspends the thread (§4.2), services
		// the page, and requeues the thread; the faulting instruction
		// re-executes.
		k.suspend(t)
		k.servicePage(f.Addr)
		k.runq = append(k.runq, t)
		k.cur = nil
	default:
		t.faulted(f)
		k.trace(obs.KindFault, t, uint64(f.Addr))
		k.cur = nil
	}
}

// syscall dispatches a syscall event. The machine has already advanced the
// PC past the syscall instruction.
func (k *Kernel) syscall(ev vmach.Event) {
	t := k.cur
	k.Stats.Syscalls++
	k.chargeKernel(uint64(k.Profile.TrapEnterCycles))
	num := t.Ctx.Regs[isa.RegV0]
	a0 := t.Ctx.Regs[isa.RegA0]
	a1 := t.Ctx.Regs[isa.RegA1]
	a2 := t.Ctx.Regs[isa.RegA2]

	k.trace(obs.KindSyscall, t, uint64(num))
	switch num {
	case SysExit:
		t.State = StateDone
		t.ExitCode = a0
		k.trace(obs.KindExit, t, uint64(a0))
		k.cur = nil
		return // no trap-exit charge for a dead thread

	case SysYield:
		// Voluntary relinquish: goes to the back of the queue. Not counted
		// as an involuntary suspension and performs no RAS check (a
		// syscall can never lie inside an atomic sequence).
		k.chargeKernel(uint64(k.Profile.TrapExitCycles))
		t.State = StateReady
		k.runq = append(k.runq, t)
		k.cur = nil
		return

	case SysWrite:
		k.Console = append(k.Console, a0)

	case SysRasRegister:
		// A kernel without registration support fails the call at once;
		// otherwise the range is vetted before it is trusted (verify.go)
		// and a malformed sequence fails it. On failure the thread
		// package overwrites the sequence with a conventional mechanism
		// (§3.1).
		t.Ctx.Regs[isa.RegV0] = ^isa.Word(0)
		if takesRegistrations(k.Strategy) && k.RegisterSequence(int(t.AS), a0, a1) == nil {
			t.Ctx.Regs[isa.RegV0] = 0
		}

	case SysTas:
		// Kernel-emulated Test-And-Set (§2.3): the read-modify-write runs
		// with interrupts disabled. A timeslice that expires inside the
		// trap is delivered on the way out — the effect §5.3 blames for
		// inflated critical sections.
		k.Stats.EmulTraps++
		k.trace(obs.KindEmulTrap, t, uint64(a0))
		k.chargeKernel(uint64(k.Profile.EmulTASCycles))
		old, f := k.M.Mem.LoadWord(a0)
		if f == nil {
			f = k.M.Mem.StoreWord(a0, 1)
		}
		if f != nil {
			if f.Kind == vmach.FaultNotPresent {
				k.servicePage(f.Addr)
				old, _ = k.M.Mem.LoadWord(a0)
				_ = k.M.Mem.StoreWord(a0, 1)
			} else {
				t.faulted(f)
				k.cur = nil
				return
			}
		}
		t.Ctx.Regs[isa.RegV0] = old

	case SysThreadCreate:
		// The child inherits the caller's address space.
		nt := k.SpawnAS(int(t.AS), a0, a2, a1)
		t.Ctx.Regs[isa.RegV0] = isa.Word(nt.ID)

	case SysTime:
		t.Ctx.Regs[isa.RegV0] = isa.Word(k.M.Stats.Cycles)
		t.Ctx.Regs[isa.RegV1] = isa.Word(k.M.Stats.Cycles >> 32)

	case SysSetHandler:
		k.userHandler, k.hasUserHandler = a0, true

	case SysCPU:
		t.Ctx.Regs[isa.RegV0] = isa.Word(k.CPUID)

	case SysThreadAlive:
		// The RME liveness oracle, answered with interrupts disabled: is
		// the named thread still able to run? Out-of-range IDs are dead —
		// a lock word naming no thread is orphaned.
		alive := isa.Word(0)
		if k.ThreadAlive(int(int32(a0))) {
			alive = 1
		}
		t.Ctx.Regs[isa.RegV0] = alive

	case SysThreadAliveG:
		// Cross-CPU liveness oracle. Defer to the SMP complex when
		// attached; otherwise global ids are local ids.
		alive := isa.Word(0)
		gtid := int(int32(a0))
		if k.PeerAlive != nil {
			if gtid >= 0 && k.PeerAlive(gtid) {
				alive = 1
			}
		} else if gtid >= 0 && gtid < len(k.threads) && k.ThreadAlive(gtid) {
			alive = 1
		}
		t.Ctx.Regs[isa.RegV0] = alive

	case SysMutexSlow:
		// The inlined designated sequence found the mutex held (Figure 5's
		// SlowAcquire). Re-examine under disabled interrupts: it may have
		// been released meanwhile.
		k.Stats.SlowAcquires++
		word, f := k.M.Mem.LoadWord(a0)
		if f != nil && f.Kind == vmach.FaultNotPresent {
			k.servicePage(f.Addr)
			word, f = k.M.Mem.LoadWord(a0)
		}
		if f != nil {
			t.faulted(f)
			k.cur = nil
			return
		}
		if word == 0 {
			_ = k.M.Mem.StoreWord(a0, MutexLocked)
			break // acquired after all
		}
		// Mark waiters and block; the releaser hands the mutex over, so
		// when this thread resumes it owns the mutex.
		_ = k.M.Mem.StoreWord(a0, word|MutexWaiters)
		k.chargeKernel(uint64(k.Profile.TrapExitCycles))
		t.State = StateBlocked
		k.waitq[a0] = append(k.waitq[a0], t)
		k.blocked++
		k.cur = nil
		return

	case SysMutexWake:
		// The inlined release sequence saw the waiters bit. Hand the mutex
		// to the first waiter, or clear it if the queue emptied.
		q := k.waitq[a0]
		if len(q) == 0 {
			_ = k.M.Mem.StoreWord(a0, 0)
			break
		}
		k.Stats.MutexWakes++
		wt := q[0]
		q = q[1:]
		word := isa.Word(MutexLocked)
		if len(q) > 0 {
			word |= MutexWaiters
			k.waitq[a0] = q
		} else {
			delete(k.waitq, a0)
		}
		_ = k.M.Mem.StoreWord(a0, word)
		wt.State = StateReady
		k.blocked--
		k.runq = append(k.runq, wt)

	default:
		t.faulted(&vmach.Fault{Kind: vmach.FaultIllegal, Addr: ev.SyscallPC})
		k.cur = nil
		return
	}

	k.chargeKernel(uint64(k.Profile.TrapExitCycles))
	// Deliver a pending timer interrupt on the way out of the kernel.
	if k.M.Stats.Cycles >= k.sliceAt {
		k.preempt()
	}
}

// Micros reports elapsed virtual time in microseconds.
func (k *Kernel) Micros() float64 { return k.M.Micros() }

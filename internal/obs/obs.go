// Package obs is the unified observability core shared by both of the
// repository's substrates: the ISA-level simulated kernel
// (internal/vmach/kernel) and the primitive-op-level virtual uniprocessor
// (internal/uniproc).
//
// The paper's central empirical claims (§5.3, Tables 1-4) are counting
// claims — restarts are rare, suspensions inside sequences are rare, RAS
// wins because the common case pays no trap — and the recoverable-mutual-
// exclusion literature (Chan & Woelfel, PAPERS.md) frames lock quality as
// *passage cost*. Both demand first-class measurement. This package
// provides it in four layers:
//
//   - an event stream: a common event schema (virtual-cycle timestamp,
//     thread, kind, args) that both substrates publish into through their
//     existing Tracer hooks, a bounded drop-oldest Ring for tails, and a
//     Rebase that stitches many runs onto one timeline;
//   - a metrics registry: counters and fixed-bucket histograms,
//     pre-wired (see PaperMetrics) with the paper's headline counters and
//     an RMR-style passage-cost histogram for core.RecoverableMutex;
//   - cycle-attributed profilers: per-PC/per-symbol flat+cumulative cycle
//     histograms for the ISA machine (CycleProfiler, fed by the kernel's
//     retired-instruction hook) and per-callsite memory-op profiles for
//     the uniprocessor runtime (MemProfiler), both with folded-stack
//     (flamegraph-ready) text output;
//   - exporters: Chrome trace-event JSON streamed as events arrive
//     (Perfetto-loadable; one track per thread plus an instant-event
//     track for chaos injections) and a plain-text metrics dump, both
//     built, with the ring tail and the profiles, by the Observer a
//     command line makes from its flags.
//
// obs depends only on the standard library, so every substrate (and core,
// bench, and the CLIs) can import it without cycles.
package obs

import "fmt"

// Kind classifies an event. The set is the union of both substrates'
// former private trace enums; kinds one substrate never emits are simply
// absent from its streams. The order Dispatch..Exit deliberately matches
// the uniprocessor runtime's original numbering so that range-style
// iteration over the runtime kinds keeps working.
type Kind int

const (
	KindDispatch      Kind = iota // a thread was given the processor
	KindPreempt                   // involuntary suspension (Arg 1 = spurious)
	KindRestart                   // a RAS rollback was applied (Arg = rolled-back-from PC)
	KindYield                     // voluntary relinquish
	KindBlock                     // thread blocked on a wait queue
	KindUnblock                   // thread readied another (Arg = woken thread ID)
	KindTrap                      // kernel trap entry (uniproc runtime)
	KindFork                      // thread created (Arg = new thread ID)
	KindExit                      // thread finished (Arg = exit code)
	KindSyscall                   // syscall dispatched (Arg = syscall number)
	KindPageFault                 // page was faulted in (Arg = address)
	KindFault                     // unrecoverable thread fault (Arg = address)
	KindInject                    // a chaos fault was applied (Arg = action bits)
	KindWatchdog                  // restart-livelock watchdog fired (Arg = restart count)
	KindDemote                    // adaptive mechanism demoted to emulation
	KindPromote                   // demoted mechanism re-promoted to the fast path
	KindKill                      // thread killed by fault injection or KillThread
	KindCrash                     // injected whole-machine crash ended the run
	KindRepair                    // orphaned lock repaired (Arg = dead owner's ID)
	KindEmulTrap                  // kernel-emulated atomic operation
	KindCrashDegraded             // a volatile or torn crash on a non-persistent memory fell back to a clean one
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindRestart:
		return "restart"
	case KindYield:
		return "yield"
	case KindBlock:
		return "block"
	case KindUnblock:
		return "unblock"
	case KindTrap:
		return "trap"
	case KindFork:
		return "fork"
	case KindExit:
		return "exit"
	case KindSyscall:
		return "syscall"
	case KindPageFault:
		return "pagefault"
	case KindFault:
		return "fault"
	case KindInject:
		return "inject"
	case KindWatchdog:
		return "watchdog"
	case KindDemote:
		return "demote"
	case KindPromote:
		return "promote"
	case KindKill:
		return "kill"
	case KindCrash:
		return "crash"
	case KindRepair:
		return "repair"
	case KindEmulTrap:
		return "emultrap"
	case KindCrashDegraded:
		return "crash-degraded"
	}
	return "?"
}

// Event is one observation, in the schema both substrates share. Cycle is
// virtual time; PC is meaningful only on the ISA substrate (zero on the
// runtime layer, which has no program counter). CPU identifies which CPU
// of an SMP complex emitted the event; uniprocessor substrates leave it 0.
type Event struct {
	Cycle  uint64
	Type   Kind
	Thread int
	CPU    int
	PC     uint32
	Arg    uint64
}

// String renders the event on one line.
func (ev Event) String() string {
	s := fmt.Sprintf("[%10d] t%-2d %-9s", ev.Cycle, ev.Thread, ev.Type)
	if ev.CPU != 0 {
		s = fmt.Sprintf("[%10d] cpu%d t%-2d %-9s", ev.Cycle, ev.CPU, ev.Thread, ev.Type)
	}
	if ev.PC != 0 {
		s += fmt.Sprintf(" pc=%#08x", ev.PC)
	}
	switch ev.Type {
	case KindRestart:
		if ev.Arg != 0 {
			s += fmt.Sprintf(" rolled back from %#08x", uint32(ev.Arg))
		}
	case KindSyscall:
		s += fmt.Sprintf(" num=%d", ev.Arg)
	case KindExit:
		s += fmt.Sprintf(" code=%d", ev.Arg)
	case KindUnblock, KindFork:
		s += fmt.Sprintf(" -> t%d", ev.Arg)
	case KindInject:
		s += fmt.Sprintf(" action=%#x", ev.Arg)
	case KindWatchdog:
		s += fmt.Sprintf(" restarts=%d", ev.Arg)
	case KindRepair:
		s += fmt.Sprintf(" dead=t%d", ev.Arg)
	}
	return s
}

// Sink receives published events. Both substrates' Tracer interfaces are
// aliases of Sink, so a Ring, a Capture, a Rebase, or a PaperMetrics can be
// installed directly as either substrate's tracer.
type Sink interface {
	Event(Event)
}

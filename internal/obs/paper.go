package obs

// PaperMetrics wires a Registry to the paper's headline counters,
// deriving every value from the event stream (not copied from substrate
// stats — the acceptance test for the events is that the two agree
// exactly). Install it as a tracer, or let an Observer feed it.
type PaperMetrics struct {
	Reg *Registry

	Restarts    *Counter // KindRestart: RAS rollbacks applied
	Preemptions *Counter // KindPreempt with Arg==0: real end-of-quantum preemptions
	Spurious    *Counter // KindPreempt with Arg!=0: injected spurious suspensions
	EmulTraps   *Counter // KindEmulTrap: kernel-emulated atomic ops
	Repairs     *Counter // KindRepair: orphaned-lock repairs
	Demotions   *Counter // KindDemote
	Watchdogs   *Counter // KindWatchdog
	Kills       *Counter // KindKill
	Crashes     *Counter // KindCrash
	Injections  *Counter // KindInject
	Syscalls    *Counter // KindSyscall
	PageFaults  *Counter // KindPageFault
	Dispatches  *Counter // KindDispatch
}

// NewPaperMetrics pre-wires reg (a fresh registry if nil).
func NewPaperMetrics(reg *Registry) *PaperMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	return &PaperMetrics{
		Reg:         reg,
		Restarts:    reg.Counter("restarts_total", "RAS rollbacks applied on suspension inside a sequence"),
		Preemptions: reg.Counter("preemptions_total", "involuntary end-of-quantum suspensions"),
		Spurious:    reg.Counter("spurious_suspensions_total", "chaos-injected spurious suspensions"),
		EmulTraps:   reg.Counter("emul_traps_total", "kernel-emulated atomic operations (trap path)"),
		Repairs:     reg.Counter("rme_repairs_total", "orphaned recoverable-mutex repairs"),
		Demotions:   reg.Counter("demotions_total", "adaptive RAS->emulation demotions"),
		Watchdogs:   reg.Counter("watchdog_fires_total", "restart-livelock watchdog fires"),
		Kills:       reg.Counter("kills_total", "threads killed mid-run"),
		Crashes:     reg.Counter("crashes_total", "injected whole-machine crashes"),
		Injections:  reg.Counter("injections_total", "chaos faults applied"),
		Syscalls:    reg.Counter("syscalls_total", "syscalls dispatched"),
		PageFaults:  reg.Counter("page_faults_total", "pages faulted in"),
		Dispatches:  reg.Counter("dispatches_total", "thread dispatches"),
	}
}

// Event implements Sink, deriving counters from the stream.
func (pm *PaperMetrics) Event(ev Event) {
	switch ev.Type {
	case KindRestart:
		pm.Restarts.Inc()
	case KindPreempt:
		if ev.Arg == 0 {
			pm.Preemptions.Inc()
		} else {
			pm.Spurious.Inc()
		}
	case KindEmulTrap:
		pm.EmulTraps.Inc()
	case KindRepair:
		pm.Repairs.Inc()
	case KindDemote:
		pm.Demotions.Inc()
	case KindWatchdog:
		pm.Watchdogs.Inc()
	case KindKill:
		pm.Kills.Inc()
	case KindCrash:
		pm.Crashes.Inc()
	case KindInject:
		pm.Injections.Inc()
	case KindSyscall:
		pm.Syscalls.Inc()
	case KindPageFault:
		pm.PageFaults.Inc()
	case KindDispatch:
		pm.Dispatches.Inc()
	}
}

// Dump renders the backing registry as plain text.
func (pm *PaperMetrics) Dump() string { return pm.Reg.Dump() }

// Command rasvm assembles and runs a guest program on the simulated
// uniprocessor, with a choice of processor profile and kernel recovery
// strategy, or runs one of the built-in demo scenarios.
//
// Usage:
//
//	rasvm [-arch r3000] [-strategy registration] [-quantum 10000] prog.s
//	rasvm -demo counter -strategy designated -workers 4 -iters 1000
//	rasvm -demo recoverable -kill-at 5000,9000       # orphan + repair
//	rasvm -demo persistent -crash-at 4000            # NVRAM: crash, reboot,
//	                                                 # recover from NVM alone
//	rasvm -demo journal -crash-at 300                # WAL: crash mid-txn,
//	                                                 # dump NVM, reboot, replay
//	rasvm -demo journal -log nofence -crash-at 300 -torn   # the planted bug
//	rasvm -demo counter -crash-at 8000 -checkpoint ck.bin
//	rasvm -restore ck.bin                            # replay the rest
//	rasvm -replay-sched cex.sched -trace-out t.json  # re-run a rascheck
//	                                                 # counterexample
//	rasvm -demo smp -cpus 4                          # §7 hybrid lock
//	rasvm -demo smp -cpus 2 -lock ras-only           # loses updates
//	rasvm -demo server -cpus 4                       # per-CPU request plane
//	rasvm -demo server -cpus 2 -variant mutex        # global-queue baseline
//	rasvm -demo qlock -lock mcs -cpus 8              # MCS: O(1) RMR/passage
//	rasvm -demo qlock -lock rmcs -cpus 2 -kill-at 300  # dead-owner repair
//	rasvm -demo resilience -plan 'crashplan:seed=0x1,point=step,span=230,crashes=1000,mix=1:2:1'
//	                                                 # supervised crash-restart
//	                                                 # campaign (TableResilience repro)
//
// The -demo scenarios are listed in the -demo help. counter,
// recoverable, persistent and journal run on the uniprocessor kernel;
// persistent and journal crash at -crash-at on two-tier NVRAM memory,
// dump the NVM image and warm-reboot the same binary over it. smp,
// server, qlock and resilience build the same systems as their rasbench
// tables. Each prints its final state and statistics, so the effect of
// every recovery strategy (including "none") is directly observable.
//
// Fault and recovery flags: -kill-at injects thread kills at the given
// retired-instruction steps; -crash-at injects a whole-machine crash.
// -checkpoint writes a binary snapshot — at step -checkpoint-at, or where
// the crash struck — that -restore resumes and replays deterministically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// options collects everything the CLI configures for one run.
type options struct {
	arch, strategy, checkAt string
	quantum                 uint64
	demo, mech              string
	workers, iters, trace   int
	timeout                 uint64 // cycle budget; 0 = kernel default
	watchdog                string // off, extend, abort
	maxRestarts             uint64
	killAt                  string // comma-separated retired-instruction steps
	crashAt                 uint64 // whole-machine crash step (0 = none)
	torn                    bool   // -crash-at is a torn-write crash (persist demos)
	logMode                 string // -demo journal: redo, undo, nofence
	checkpoint              string // snapshot file to write
	checkpointAt            uint64 // step to checkpoint at (0 = only at crash)
	restore                 string // snapshot file to resume from
	replaySched             string // mcheck .sched counterexample to re-execute
	traceOut                string // Chrome trace-event JSON destination ("-" = stdout)
	cpuProfile              string // host CPU profile file (pprof)
	metrics                 string // metrics dump destination ("-" = stdout)
	profTop                 int    // top-N cycle profile report (0 = off)
	folded                  string // folded-stack profile destination ("-" = stdout)
	cpus                    int    // -demo smp/server/qlock: number of CPUs
	lock                    string // -demo smp/qlock: lock implementation
	variant                 string // -demo server: request-plane variant
	killCPU                 int    // -demo smp/qlock: CPU whose running thread -kill-at kills
	smpMode                 string // -demo qlock: RMR counting mode, cc or dsm
	plan                    string // -demo resilience: one-line crash plan
	args                    []string
	setFlags                map[string]bool // flags the user set explicitly
}

// scenario is one built-in -demo workload. refuses lists the
// observability flags its runs cannot feed; run refuses them up front.
type scenario struct {
	name    string
	run     func(w io.Writer, o options, ob *observer) error
	refuses []string
}

// smpRefuses: the cycle profiler keeps one shadow stack per thread ID,
// and an SMP system's thread IDs repeat on every CPU.
var smpRefuses = []string{"-profile", "-folded"}

// scenarios is the -demo registry: the flag help, the unknown-demo error
// and the golden tests all iterate it.
var scenarios = []scenario{
	{"counter", runCounter, nil},
	{"recoverable", runRecoverable, nil},
	{"persistent", runPersistent, nil},
	{"journal", runJournal, nil},
	{"smp", runSMP, smpRefuses},
	{"server", runServer, smpRefuses},
	{"qlock", runQlock, smpRefuses},
	// The profiler reads a kernel's guest stacks, and persist and memop
	// plans run the uniproc server plane, which has none.
	{"resilience", runResilience, []string{"-profile", "-folded"}},
}

func main() {
	o, list := parseFlags(os.Args[1:])
	if list {
		for _, n := range arch.Names() {
			fmt.Printf("%-8s %s\n", n, arch.ByName(n))
		}
		return
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "rasvm:", err)
		os.Exit(1)
	}
}

// parseFlags parses a command line into options; list reports -list.
func parseFlags(args []string) (o options, list bool) {
	var names []string
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.arch, "arch", "r3000", "processor profile (see -list)")
	fs.StringVar(&o.strategy, "strategy", "registration", "recovery strategy: none, registration, designated, userlevel")
	fs.StringVar(&o.checkAt, "check", "suspend", "PC check placement: suspend, resume")
	fs.Uint64Var(&o.quantum, "quantum", 10000, "timeslice in cycles")
	fs.StringVar(&o.demo, "demo", "", "built-in scenario to run instead of a source file: "+strings.Join(names, ", "))
	fs.StringVar(&o.mech, "mech", "registered", "demo mechanism: none, registered, designated, emulation, interlocked, lockbit, userlevel, lamport-a, lamport-b, taos-mutex")
	fs.IntVar(&o.workers, "workers", 4, "demo worker threads")
	fs.IntVar(&o.iters, "iters", 1000, "demo iterations per worker")
	fs.BoolVar(&list, "list", false, "list processor profiles and exit")
	fs.IntVar(&o.trace, "trace", 0, "print the last N kernel events (0 disables tracing)")
	fs.Uint64Var(&o.timeout, "timeout", 0, "cycle budget (0 = default); a livelocked guest exits nonzero with a diagnostic")
	fs.StringVar(&o.watchdog, "watchdog", "off", "restart-livelock watchdog: off, extend, abort")
	fs.Uint64Var(&o.maxRestarts, "maxrestarts", 0, "watchdog consecutive-restart threshold (0 = default 32)")
	fs.StringVar(&o.killAt, "kill-at", "", "kill the running thread at these retired-instruction steps (comma-separated)")
	fs.Uint64Var(&o.crashAt, "crash-at", 0, "inject a whole-machine crash at this step (0 = none)")
	fs.BoolVar(&o.torn, "torn", false, "make -crash-at a torn-write crash: pending lines persist only a word prefix (persistent/journal demos)")
	fs.StringVar(&o.logMode, "log", "redo", "-demo journal: logging discipline: redo, undo, nofence (planted bug)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a binary machine snapshot to this file (at -checkpoint-at, or where a crash struck)")
	fs.Uint64Var(&o.checkpointAt, "checkpoint-at", 0, "retired-instruction step to checkpoint at (0 = only at crash)")
	fs.StringVar(&o.restore, "restore", "", "resume from a snapshot file instead of loading a program")
	fs.StringVar(&o.replaySched, "replay-sched", "", "re-execute an mcheck .sched counterexample (rascheck output) and report its violations")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of the run (\"-\" = stdout; load in Perfetto)")
	fs.StringVar(&o.metrics, "metrics", "", "write a plain-text metrics dump derived from the event stream (\"-\" = stdout)")
	fs.IntVar(&o.profTop, "profile", 0, "print the top-N symbols of the cycle-attributed profile (0 disables)")
	fs.StringVar(&o.folded, "folded", "", "write the cycle profile as folded stacks for flamegraph tools (\"-\" = stdout)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a host CPU profile of the run to this file (read it with go tool pprof)")
	fs.IntVar(&o.cpus, "cpus", 1, "-demo smp: number of CPUs")
	fs.StringVar(&o.lock, "lock", "hybrid", "-demo smp: lock implementation: hybrid, spinlock, llsc, ras-only")
	fs.StringVar(&o.variant, "variant", "percpu", "-demo server: request plane: percpu, mutex, racy")
	fs.IntVar(&o.killCPU, "kill-cpu", 0, "-demo smp: CPU whose running thread -kill-at kills")
	fs.StringVar(&o.smpMode, "mode", "cc", "-demo qlock: RMR counting mode: cc (cache-coherent) or dsm (distributed shared memory)")
	fs.StringVar(&o.plan, "plan", "", "-demo resilience: one-line crash plan (crashplan:seed=...,point=...,span=...,crashes=...,mix=c:v:t); empty derives a default campaign")
	fs.Parse(args)
	o.args = fs.Args()
	o.setFlags = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.setFlags[f.Name] = true })
	return o, list
}

// run executes one invocation, writing its report to w, then the
// observability outputs its flags ask for.
func run(w io.Writer, o options) error {
	var s scenario
	switch {
	case o.replaySched != "":
		s = scenario{"-replay-sched", runReplaySched, smpRefuses}
	case o.demo != "":
		var err error
		if s, err = lookup("-demo", o.demo, func(s scenario) string { return s.name }, scenarios...); err != nil {
			return err
		}
		s.name = "-demo " + s.name
	case o.restore != "" || len(o.args) == 1:
		s = scenario{run: runSource}
	default:
		return errors.New("expected one source file, -demo, or -restore")
	}
	on := map[string]bool{"-trace": o.trace > 0, "-trace-out": o.traceOut != "", "-metrics": o.metrics != "",
		"-profile": o.profTop > 0, "-folded": o.folded != ""}
	for _, f := range s.refuses {
		if on[f] {
			return fmt.Errorf("%s cannot honour %s", s.name, f)
		}
	}
	oo, err := obs.NewObserver(obs.Outputs{Tail: o.trace, TraceOut: o.traceOut, Metrics: o.metrics,
		Profile: o.profTop, Folded: o.folded, CPUProfile: o.cpuProfile})
	if err != nil {
		return err
	}
	oo.TraceLine = "trace:         %s (%d events; load in Perfetto)\n"
	ob := &observer{Observer: oo, h: bench.Harness{Trace: oo.Trace}}
	err = s.run(w, o, ob)
	if cerr := ob.Close(w); err == nil {
		err = cerr
	}
	return err
}

// runSource runs the source file, or the -restore snapshot, on the kernel.
func runSource(w io.Writer, o options, ob *observer) error {
	var src string
	if o.restore == "" {
		raw, err := os.ReadFile(o.args[0])
		if err != nil {
			return err
		}
		src = string(raw)
	}
	return runKernel(w, o, ob, src, nil)
}

// lookup returns the value among vals whose name is s; the error names
// the option and every choice.
func lookup[T any](opt, s string, name func(T) string, vals ...T) (T, error) {
	var names []string
	for _, v := range vals {
		if name(v) == s {
			return v, nil
		}
		names = append(names, name(v))
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (%s)", opt, s, strings.Join(names, ", "))
}

// faultSchedule builds the injector for -kill-at plus, for a non-zero
// crash action, a one-shot crash at -crash-at; nil when there is neither.
func faultSchedule(o options, crash chaos.Action) (chaos.Injector, error) {
	var shots []chaos.Injector
	if o.killAt != "" {
		for _, f := range strings.Split(o.killAt, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("-kill-at: bad step %q", f)
			}
			shots = append(shots, chaos.OneShot{Point: chaos.PointStep, N: n, Action: chaos.Action{Kill: true}})
		}
	}
	if o.crashAt > 0 && crash != (chaos.Action{}) {
		shots = append(shots, chaos.OneShot{Point: chaos.PointStep, N: o.crashAt, Action: crash})
	}
	if len(shots) == 0 {
		return nil, nil
	}
	return chaos.Compose(shots...), nil
}

// cpuFaults checks -cpus and -kill-cpu and aims faultSchedule at the
// thread running on CPU -kill-cpu.
func cpuFaults(o options, crash chaos.Action) (func(cpu int) chaos.Injector, error) {
	if o.cpus < 1 {
		return nil, errors.New("-cpus must be at least 1")
	}
	if o.killCPU < 0 || o.killCPU >= o.cpus {
		return nil, fmt.Errorf("-kill-cpu %d out of range for %d CPUs", o.killCPU, o.cpus)
	}
	inj, err := faultSchedule(o, crash)
	if inj == nil {
		return nil, err
	}
	return func(cpu int) chaos.Injector {
		if cpu == o.killCPU {
			return inj
		}
		return nil
	}, nil
}

// observer is the command line's obs.Observer and the harness that runs
// every substrate under its trace.
type observer struct {
	*obs.Observer
	h bench.Harness
}

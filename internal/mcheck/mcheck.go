// Package mcheck is a schedule-space model checker for the repository's
// deterministic substrates: the ISA-level kernel (internal/vmach), the
// multi-CPU system (internal/vmach/smp), and the primitive-op virtual
// uniprocessor (internal/uniproc).
//
// The paper's correctness claim — a restartable atomic sequence "is
// eventually executed without interleaving" (§3) — was so far tested by
// seeded chaos sweeps, which sample the schedule space. This package
// covers it: a schedule is a short list of forced scheduling decisions
// (preempt this instruction, kill this thread, switch CPUs here), each
// pinned to a deterministic event ordinal, and the checker enumerates
// schedules either exhaustively (bounded DFS with state-hash pruning over
// the normalized substrate state, see hash.go) or randomly (seeded,
// replayable).
// Invariant checkers — mutual exclusion via memory watchpoints, lost
// updates, deadlock, restart-livelock, recoverable-mutex repair — watch
// every run; a failing schedule is shrunk to a minimal counterexample and
// serialized as a .sched file that rasvm -replay-sched and rascheck
// -replay re-execute deterministically.
package mcheck

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/uniproc"
	"repro/internal/vmach/kernel"
)

// Action is one kind of forced scheduling decision.
type Action int

const (
	// ActPreempt forces an involuntary preemption at the decision's
	// ordinal — the vmach/uniproc interleaving primitive.
	ActPreempt Action = iota
	// ActKill kills the currently running thread at the ordinal.
	ActKill
	// ActCrash halts the whole machine at the ordinal.
	ActCrash
	// ActSwitch hands the interleaving to the next CPU at the ordinal —
	// the smp primitive (meaningless on single-CPU substrates).
	ActSwitch
	// ActCrashVolatile crashes the machine with volatile-memory semantics
	// at the ordinal: unfenced lines revert to NVM and the system reboots.
	// On the persist model the ordinal space is persist operations
	// (flushes + fences) retired, so ordinals enumerate exactly the
	// crash points between persist operations.
	ActCrashVolatile
	// ActCrashTorn is ActCrashVolatile with torn write-backs
	// (chaos.CrashTorn): lines with an initiated-but-unfenced
	// write-back persist only a deterministic prefix of their words.
	// The torn split is derived from the decision ordinal, so a .sched
	// replays the exact same tear.
	ActCrashTorn
)

func (a Action) String() string {
	switch a {
	case ActPreempt:
		return "preempt"
	case ActKill:
		return "kill"
	case ActCrash:
		return "crash"
	case ActSwitch:
		return "switch"
	case ActCrashVolatile:
		return "crash-volatile"
	case ActCrashTorn:
		return "crash-torn"
	}
	return "?"
}

// ParseAction inverts Action.String.
func ParseAction(s string) (Action, error) {
	switch s {
	case "preempt":
		return ActPreempt, nil
	case "kill":
		return ActKill, nil
	case "crash":
		return ActCrash, nil
	case "switch":
		return ActSwitch, nil
	case "crash-volatile":
		return ActCrashVolatile, nil
	case "crash-torn":
		return ActCrashTorn, nil
	}
	return 0, fmt.Errorf("mcheck: unknown action %q", s)
}

// Decision pins one action to a deterministic event ordinal. Ordinals
// count the substrate's preemption points: retired instructions on vmach
// (kernel.Steps), scheduler steps across all CPUs on smp, memory
// operations on uniproc. Ordinal 1 is the first point; a decision fires
// when the count reaches At.
type Decision struct {
	At  uint64
	Act Action
}

// Schedule is a complete, self-describing experiment: which model to
// build, with which parameters, and the decisions to force. Decisions are
// kept sorted by ordinal, at most one per ordinal.
type Schedule struct {
	Model     string
	Params    map[string]string
	Decisions []Decision
	Note      string
}

// Clone deep-copies the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Model: s.Model, Note: s.Note, Params: map[string]string{}}
	for k, v := range s.Params {
		c.Params[k] = v
	}
	c.Decisions = append([]Decision(nil), s.Decisions...)
	return c
}

// injector is the schedule-driven chaos.Injector: a fixed map from event
// ordinal to action at one instrumentation point.
type injector struct {
	point chaos.Point
	acts  map[uint64]chaos.Action
	ats   []uint64 // the keys of acts, ascending
}

// actFaults is the Act↔fault table: the chaos action each decision
// injects. ActSwitch injects none; the interleaver applies it.
var actFaults = [...]chaos.Action{
	ActPreempt:       {Preempt: true},
	ActKill:          {Kill: true},
	ActCrash:         {Crash: chaos.CrashClean},
	ActSwitch:        {},
	ActCrashVolatile: {Crash: chaos.CrashVolatile},
	ActCrashTorn:     {Crash: chaos.CrashTorn},
}

func newInjector(point chaos.Point, ds []Decision) *injector {
	in := &injector{point: point, acts: map[uint64]chaos.Action{}}
	for _, d := range ds {
		a, ok := in.acts[d.At]
		if !ok {
			in.ats = append(in.ats, d.At)
		}
		in.acts[d.At] = a.Merge(actFaults[d.Act])
	}
	slices.Sort(in.ats)
	return in
}

func (in *injector) At(p chaos.Point, n uint64) chaos.Action {
	if p != in.point {
		return chaos.Action{}
	}
	return in.acts[n]
}

// Next is the first decision ordinal at or after n.
func (in *injector) Next(p chaos.Point, n uint64) uint64 {
	if p != in.point {
		return chaos.Never
	}
	if i, _ := slices.BinarySearch(in.ats, n); i < len(in.ats) {
		return in.ats[i]
	}
	return chaos.Never
}

// Violation is one invariant breach, recorded where it happened.
type Violation struct {
	// Kind names the checker: mutual-exclusion, lost-update,
	// counter-exact, deadlock, restart-livelock, budget, lock-discipline,
	// rme, stuck, crash.
	Kind string
	Msg  string
}

func (v Violation) String() string { return v.Kind + ": " + v.Msg }

// violations accumulates breaches with a cap (a broken run can breach on
// every store; the first few carry all the signal).
type violations struct {
	list []Violation
}

func (v *violations) add(kind, format string, args ...any) {
	if len(v.list) < 16 {
		v.list = append(v.list, Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
}

// breach records a broken guest RME rule under its own kind.
func (v *violations) breach(b guest.RMEBreach) { v.add(b.Kind, "%s", b.Msg) }

// terminalKinds maps the substrates' terminal run errors to violation
// kinds; any other error is an abort.
var terminalKinds = []struct {
	err  error
	kind string
}{
	{kernel.ErrDeadlock, "deadlock"},
	{uniproc.ErrDeadlock, "deadlock"},
	{kernel.ErrLivelock, "restart-livelock"},
	{uniproc.ErrLivelock, "restart-livelock"},
	{kernel.ErrBudget, "budget"},
	{uniproc.ErrBudget, "budget"},
}

// terminal folds a run's terminal error, if any, into the taxonomy. A
// cpu >= 0 prefixes the message with the CPU whose verdict it is.
func (v *violations) terminal(err error, cpu int) {
	if err == nil {
		return
	}
	kind := "abort"
	for _, t := range terminalKinds {
		if errors.Is(err, t.err) {
			kind = t.kind
			break
		}
	}
	if cpu >= 0 {
		v.add(kind, "cpu%d: %v", cpu, err)
	} else {
		v.add(kind, "%v", err)
	}
}

// Substrate is one machine a model runs: a *kernel.Kernel or a
// *uniproc.Processor.
type Substrate interface{ Run() error }

// Options is harness wiring threaded into every instance a model builds.
type Options struct {
	// Tracer, when non-nil, receives the substrate's event stream —
	// replaying a counterexample with an obs.Observer attached yields the
	// Chrome trace of the failing interleaving.
	Tracer obs.Sink
	// Run, when non-nil, is called with each substrate a model builds
	// and the function that drives it — a uniproc processor's whole run,
	// a vmach instance's remaining steps, one life of a rebooting
	// machine — and calls drive in its place: bench passes its Harness,
	// so the runs are traced and counted. Prefix-state reference runs do
	// not go through it.
	Run func(s Substrate, drive func() error) error
}

// run drives s through the Run hook, or directly.
func (o Options) run(s Substrate, drive func() error) error {
	if o.Run != nil {
		return o.Run(s, drive)
	}
	return drive()
}

// Outcome is what one finished run did, beyond its verdict: the sums a
// bench sweep that replays the model reports.
type Outcome struct {
	Kills   uint64 // threads the schedule killed
	Crashes uint64 // boots that ended in a crash
	// Repairs counts recoveries that had something to mend: dead-owner
	// steals (uni-rme, recoverable), the guest's boot-time lock repairs
	// (persist), crashes that left a committed journal record (journal),
	// transactions recovery rolled (pstruct).
	Repairs uint64
	// Written and Replayed count journal records appended and fenced,
	// and replayed at mount (memfs-journal).
	Written, Replayed uint64
	// MaxLoss is the most committed increments one crash discarded: the
	// persist audit's volatile-minus-NVM counter.
	MaxLoss int64
}

// Instance is one run of a model under one schedule.
type Instance interface {
	// RunTo advances until the decision ordinal `at` has fired (cursor
	// == at) or the run ended, whichever is first. An instance that
	// cannot pause runs its whole schedule.
	RunTo(at uint64) (done bool)
	// RunToEnd drives the run to completion and applies the model's
	// end-state invariants (exactly once).
	RunToEnd()
	// Cursor is the current event ordinal.
	Cursor() uint64
	// StateHash returns the canonical hash of the paused state for DFS
	// pruning; ok is false when the instance cannot pause.
	StateHash() (h [32]byte, ok bool)
	// Violations reports every invariant breach recorded so far.
	Violations() []Violation
}

// Model builds instances for one (substrate, workload) pair.
type Model interface {
	// Name is the registry key ("counter", "smp-counter", ...).
	Name() string
	// Params are the resolved parameters, defaults filled in.
	Params() map[string]string
	// Primary is the action the explorers place at enumerated ordinals.
	Primary() Action
	// New builds an instance that will force the given decisions.
	New(ds []Decision, opt Options) (Instance, error)
}

// model is every registered Model: a model file states its workload and
// invariants in new, and one of the instance cores (vmachInstance,
// rebootInstance, interleaver, uniInstance) runs them.
type model struct {
	name    string
	params  map[string]string
	primary Action
	new     func(ds []Decision, opt Options) (Instance, error)
}

func (m *model) Name() string              { return m.name }
func (m *model) Params() map[string]string { return m.params }
func (m *model) Primary() Action           { return m.primary }
func (m *model) New(ds []Decision, opt Options) (Instance, error) {
	return m.new(ds, opt)
}

// OutcomeOf reports what a finished instance's run did; an instance of
// a model that records no outcome reports the zero Outcome.
func OutcomeOf(in Instance) Outcome {
	switch in := in.(type) {
	case *uniInstance:
		return in.out
	case *vmachInstance:
		return in.out
	case *rebootInstance:
		return in.out
	}
	return Outcome{}
}

// RunOnce builds an instance for ds, runs it to completion, and reports
// its violations — the primitive the shrinker, the replayers, and the
// random explorer share.
func RunOnce(m Model, ds []Decision, opt Options) ([]Violation, error) {
	in, err := m.New(ds, opt)
	if err != nil {
		return nil, err
	}
	in.RunToEnd()
	return in.Violations(), nil
}

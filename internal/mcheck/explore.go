package mcheck

import (
	"fmt"
	"sort"
)

// Explorer drives one model through a bounded slice of its schedule
// space.
type Explorer struct {
	Model Model
	Opt   Options

	// MaxDecisions bounds how many forced decisions a schedule may carry
	// (default 2). The space grows as horizon^MaxDecisions; the bound is
	// the context-bounding argument for why small values already cover
	// the interesting interleavings.
	MaxDecisions int
	// Horizon caps the largest decision ordinal (0: the natural end of
	// each run).
	Horizon uint64
	// MaxSchedules is a safety cap on executed schedules (0: none).
	MaxSchedules int
}

// Report is the outcome of an exploration.
type Report struct {
	ModelName string
	Params    map[string]string
	Mode      string // "exhaustive" or "random"
	Seed      uint64 // random mode only
	// Bounds actually used.
	MaxDecisions int
	Horizon      uint64
	// Schedules executed, distinct normalized states seen, and prefixes
	// pruned as already-covered.
	Schedules int
	States    int
	Pruned    int
	// Truncated is set when MaxSchedules cut the walk short: the space
	// was NOT covered to the stated bound.
	Truncated bool
	// Counterexample is nil when every schedule satisfied the invariants.
	Counterexample *Counterexample
}

// Counterexample is a failing schedule, minimized.
type Counterexample struct {
	Schedule   *Schedule
	Violations []Violation
	// FoundLen is the decision count before shrinking.
	FoundLen int
}

// Passed reports whether the exploration covered its bounded space
// without a violation.
func (r *Report) Passed() bool { return r.Counterexample == nil && !r.Truncated }

func (r *Report) String() string {
	s := fmt.Sprintf("%s[%s] %s k<=%d horizon=%d: %d schedules, %d states, %d pruned",
		r.ModelName, paramString(r.Params), r.Mode, r.MaxDecisions, r.Horizon, r.Schedules, r.States, r.Pruned)
	if r.Truncated {
		s += " (TRUNCATED)"
	}
	if r.Counterexample != nil {
		s += fmt.Sprintf(" — VIOLATION %v (minimized to %d decisions from %d)",
			r.Counterexample.Violations[0], len(r.Counterexample.Schedule.Decisions), r.Counterexample.FoundLen)
	}
	return s
}

func paramString(p map[string]string) string {
	return (&Schedule{Params: p}).ParamString()
}

func (e *Explorer) defaults() {
	if e.MaxDecisions <= 0 {
		e.MaxDecisions = 2
	}
}

// newReport seeds a report with the exploration's bounds.
func (e *Explorer) newReport(mode string) *Report {
	return &Report{
		ModelName:    e.Model.Name(),
		Params:       e.Model.Params(),
		Mode:         mode,
		MaxDecisions: e.MaxDecisions,
		Horizon:      e.Horizon,
	}
}

// found minimizes a failing schedule into the report's counterexample.
func (e *Explorer) found(rep *Report, ds []Decision, vio []Violation) {
	sched := &Schedule{
		Model:     e.Model.Name(),
		Params:    e.Model.Params(),
		Decisions: append([]Decision(nil), ds...),
	}
	shrunk, svio := Shrink(e.Model, sched, e.Opt)
	if len(svio) == 0 {
		svio = vio
	}
	rep.Counterexample = &Counterexample{Schedule: shrunk, Violations: svio, FoundLen: len(ds)}
}

// Exhaustive walks every schedule of up to MaxDecisions forced decisions
// of the model's primary action, each placed at any event ordinal up to
// the horizon, depth-first. Each prefix pauses right after its last
// decision and, when the instance can hash the paused state, is pruned
// if that normalized state hash has been seen with at least as much
// remaining decision budget — two prefixes parking the substrate in the
// same state have the same futures, so the larger remaining budget
// subsumes the smaller.
//
// The walk stops at the first violation, which is then shrunk. A nil
// counterexample in the report means the bounded space is clean.
func (e *Explorer) Exhaustive() (*Report, error) {
	e.defaults()
	rep := e.newReport("exhaustive")
	type seenInfo struct{ remaining int }
	seen := map[[32]byte]seenInfo{}
	// stack of schedule prefixes; each entry's decisions are sorted.
	stack := [][]Decision{nil}
	for len(stack) > 0 {
		ds := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.MaxSchedules > 0 && rep.Schedules >= e.MaxSchedules {
			rep.Truncated = true
			break
		}
		rep.Schedules++
		in, err := e.Model.New(ds, e.Opt)
		if err != nil {
			return nil, err
		}
		if len(ds) > 0 {
			in.RunTo(ds[len(ds)-1].At)
			if vio := in.Violations(); len(vio) > 0 {
				rep.States = len(seen)
				e.found(rep, ds, vio)
				return rep, nil
			}
			if h, ok := in.StateHash(); ok {
				remaining := e.MaxDecisions - len(ds)
				if info, dup := seen[h]; dup && info.remaining >= remaining {
					rep.Pruned++
					continue
				}
				seen[h] = seenInfo{remaining: remaining}
			}
		}
		in.RunToEnd()
		if vio := in.Violations(); len(vio) > 0 {
			rep.States = len(seen)
			e.found(rep, ds, vio)
			return rep, nil
		}
		if len(ds) >= e.MaxDecisions {
			continue
		}
		var base uint64
		if len(ds) > 0 {
			base = ds[len(ds)-1].At
		}
		hi := in.Cursor()
		if e.Horizon > 0 && e.Horizon < hi {
			hi = e.Horizon
		}
		// Push descending so the DFS pops ordinals in ascending order.
		for at := hi; at > base; at-- {
			ext := make([]Decision, len(ds)+1)
			copy(ext, ds)
			ext[len(ds)] = Decision{At: at, Act: e.Model.Primary()}
			stack = append(stack, ext)
		}
	}
	rep.States = len(seen)
	return rep, nil
}

// Run explores in the named mode: "exhaustive", or "random" with count
// schedules drawn from seed.
func (e *Explorer) Run(mode string, seed uint64, count int) (*Report, error) {
	switch mode {
	case "exhaustive":
		return e.Exhaustive()
	case "random":
		return e.Random(seed, count, nil)
	}
	return nil, fmt.Errorf("mcheck: unknown mode %q", mode)
}

// Random samples the schedule space: `schedules` runs, each carrying 1..
// MaxDecisions decisions at seeded-random ordinals. Every sample is a
// pure function of (seed, index), so a failure replays from the seed
// alone — and is still shrunk and serialized like any counterexample.
// Actions beyond the model's primary can be mixed in via acts (nil: the
// primary only).
func (e *Explorer) Random(seed uint64, schedules int, acts []Action) (*Report, error) {
	e.defaults()
	rep := e.newReport("random")
	rep.Seed = seed
	if len(acts) == 0 {
		acts = []Action{e.Model.Primary()}
	}
	// Probe the undisturbed run for its natural length (and check it).
	probe, err := e.Model.New(nil, e.Opt)
	if err != nil {
		return nil, err
	}
	probe.RunToEnd()
	rep.Schedules++
	if vio := probe.Violations(); len(vio) > 0 {
		e.found(rep, nil, vio)
		return rep, nil
	}
	span := probe.Cursor()
	if e.Horizon > 0 && e.Horizon < span {
		span = e.Horizon
	}
	if span == 0 {
		span = 1
	}
	for i := 0; i < schedules; i++ {
		r := newRand(seed, uint64(i))
		n := 1 + int(r.next()%uint64(e.MaxDecisions))
		if uint64(n) > span {
			n = int(span) // only span distinct ordinals exist
		}
		ords := map[uint64]bool{}
		var ds []Decision
		for len(ds) < n {
			at := r.next()%span + 1
			if ords[at] {
				continue
			}
			ords[at] = true
			ds = append(ds, Decision{At: at, Act: acts[r.next()%uint64(len(acts))]})
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].At < ds[b].At })
		rep.Schedules++
		vio, err := RunOnce(e.Model, ds, e.Opt)
		if err != nil {
			return nil, err
		}
		if len(vio) > 0 {
			e.found(rep, ds, vio)
			return rep, nil
		}
	}
	return rep, nil
}

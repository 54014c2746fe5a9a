package main

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/mcheck"
)

// mcheckSuite is the mcheck-suite workload: every mcheck.Suite() entry,
// in suite order, as `rascheck -suite` runs them. The suite has no
// seeded inputs, so the seed only names the run. One pass is the whole
// suite; one unit is one explored schedule.
type mcheckSuite struct {
	seed    uint64
	entries []mcheck.SuiteEntry
	smpProg []*asm.Program // the smp-counter guests, for the decode probe
	asmMS   []float64

	schedules, states, pruned int // over the prefix pass
	entryNs                   map[string]int64
	shrinkNs                  int64
	passes                    int
}

func newMcheckSuite(seed uint64, smoke bool) *mcheckSuite {
	var entries []mcheck.SuiteEntry
	for _, e := range mcheck.Suite() {
		// The smoke suite keeps cheap entries of both expectations and
		// both explorer modes.
		if !smoke || e.Model == "broken2store" || e.Model == "recoverable" {
			entries = append(entries, e)
		}
	}
	return &mcheckSuite{seed: seed, entries: entries, entryNs: map[string]int64{}}
}

func (w *mcheckSuite) prefix() int { return 1 }

func (w *mcheckSuite) setup() error {
	t0 := time.Now()
	w.smpProg = w.smpProg[:0]
	for _, l := range []guest.SMPLock{guest.SMPHybrid, guest.SMPLLSC} {
		p, err := asm.Assemble(guest.SMPCounterProgram(l, 2))
		if err != nil {
			return err
		}
		w.smpProg = append(w.smpProg, p)
	}
	w.asmMS = append(w.asmMS, float64(time.Since(t0))/1e6)
	for _, e := range w.entries {
		m, err := mcheck.BuildModel(e.Model, e.Over)
		if err != nil {
			return err
		}
		if _, err := mcheck.RunOnce(m, nil, mcheck.Options{}); err != nil {
			return fmt.Errorf("warm-up %s: %w", e.Model, err)
		}
	}
	return nil
}

// runEntry is mcheck.RunEntry with the model passed through wrap, so the
// explorer's calls into it can be timed.
func runEntry(ent mcheck.SuiteEntry, wrap func(mcheck.Model) mcheck.Model) (*mcheck.Report, bool, error) {
	m, err := mcheck.BuildModel(ent.Model, ent.Over)
	if err != nil {
		return nil, false, err
	}
	e := &mcheck.Explorer{Model: wrap(m), MaxDecisions: ent.K}
	var rep *mcheck.Report
	switch ent.Mode {
	case "exhaustive":
		rep, err = e.Exhaustive()
	case "random":
		rep, err = e.Random(ent.Seed, ent.Count, nil)
	default:
		err = fmt.Errorf("suite entry with unknown mode %q", ent.Mode)
	}
	if err != nil {
		return nil, false, err
	}
	switch ent.Expect {
	case "pass":
		return rep, rep.Passed(), nil
	case "violation":
		return rep, rep.Counterexample != nil, nil
	}
	return rep, false, fmt.Errorf("suite entry with unknown expectation %q", ent.Expect)
}

// entryRun turns the explorer's Model.New calls into schedules: a
// schedule runs from one New to the next. Once an instance reports a
// violation the explorer is shrinking, and its runs are not schedules.
type entryRun struct {
	m         *meter
	start     time.Time // of the schedule in progress
	cur       *timedInstance
	count     int
	shrinking bool
	shrinkAt  time.Time
}

// scheduleChunk is how many schedules make one chunk of work (see meter).
const scheduleChunk = 100

// boundary closes the schedule in progress and, unless shrinking, opens
// the next one.
func (r *entryRun) boundary(open bool) {
	if r.cur != nil {
		r.m.unit(time.Since(r.start), r.cur.cursor)
		r.count++
		r.cur = nil
		if r.m.units%scheduleChunk == 0 {
			r.m.endChunk()
		}
	}
	if open && !r.shrinking {
		r.start = time.Now()
	}
}

type timedModel struct {
	mcheck.Model
	r *entryRun
}

func (tm *timedModel) New(ds []mcheck.Decision, opt mcheck.Options) (in mcheck.Instance, err error) {
	r := tm.r
	r.boundary(true)
	r.m.timed(kindNew, int64(r.count), func() { in, err = tm.Model.New(ds, opt) })
	if err != nil {
		return nil, err
	}
	ti := &timedInstance{Instance: in, r: r}
	if !r.shrinking {
		r.cur = ti
	}
	return ti, nil
}

// timedInstance times the explorer's calls and tracks the decision
// ordinals (the substrate's simulated steps) the instance executed.
type timedInstance struct {
	mcheck.Instance
	r      *entryRun
	cursor uint64
}

func (ti *timedInstance) RunTo(at uint64) (done bool) {
	ti.r.m.timed(kindRunTo, int64(ti.r.count), func() { done = ti.Instance.RunTo(at) })
	ti.cursor = ti.Instance.Cursor()
	return done
}

func (ti *timedInstance) RunToEnd() {
	ti.r.m.timed(kindRunToEnd, int64(ti.r.count), ti.Instance.RunToEnd)
	ti.cursor = ti.Instance.Cursor()
}

func (ti *timedInstance) StateHash() (h [32]byte, ok bool) {
	ti.r.m.timed(kindStateHash, int64(ti.r.count), func() { h, ok = ti.Instance.StateHash() })
	return h, ok
}

func (ti *timedInstance) Violations() []mcheck.Violation {
	v := ti.Instance.Violations()
	if len(v) > 0 && !ti.r.shrinking {
		ti.r.shrinking, ti.r.shrinkAt = true, time.Now()
	}
	return v
}

func (w *mcheckSuite) pass(i int, m *meter) {
	w.passes++
	for ei, ent := range w.entries {
		r := &entryRun{m: m}
		var rep *mcheck.Report
		var ok bool
		var err error
		probed := m.probeTime
		d := m.timed(kindEntry, int64(ei), func() {
			rep, ok, err = runEntry(ent, func(md mcheck.Model) mcheck.Model { return &timedModel{Model: md, r: r} })
			r.boundary(false)
		})
		w.entryNs[ent.Model] += int64(d - (m.probeTime - probed))
		if r.shrinking {
			w.shrinkNs += int64(time.Since(r.shrinkAt))
		}
		if err != nil || !ok {
			if r.count == 0 {
				m.unit(0, 0)
				r.count = 1
			}
			m.failed += int64(r.count)
			desc := fmt.Sprint(err)
			if err == nil {
				desc = rep.String()
			}
			reportFailure("mcheck-suite", w.seed, "%s (expect %s): %s", mcheck.SuiteResult{Entry: ent}.ReproCommand(), ent.Expect, desc)
			continue
		}
		if m.inPrefix {
			w.schedules += rep.Schedules
			w.states += rep.States
			w.pruned += rep.Pruned
		}
	}
}

func (w *mcheckSuite) simulated() map[string]float64 {
	return map[string]float64{
		"mcheck.schedules":   float64(w.schedules),
		"mcheck.states":      float64(w.states),
		"mcheck.pruned":      float64(w.pruned),
		"mcheck.prune_ratio": ratio(float64(w.pruned), float64(w.schedules)),
	}
}

func (w *mcheckSuite) timings(t *tracer) map[string]float64 {
	per := func(ns int64) float64 { return ratio(float64(ns)/1e9, float64(w.passes)) }
	out := map[string]float64{
		"asm.assemble_ms":     quantile(w.asmMS, 0.5),
		"isa.decode_ns":       decodeNs(w.smpProg),
		"mcheck.new_s":        per(t.totals[kindNew].dur),
		"mcheck.run_to_s":     per(t.totals[kindRunTo].dur),
		"mcheck.run_to_end_s": per(t.totals[kindRunToEnd].dur),
		"mcheck.state_hash_s": per(t.totals[kindStateHash].dur),
		"mcheck.dfs_self_s":   per(int64(t.trueSelf(kindEntry))),
		"mcheck.shrink_s":     per(w.shrinkNs),
	}
	for _, name := range suiteModels {
		out["mcheck.entry_s."+name] = per(w.entryNs[name])
	}
	return out
}

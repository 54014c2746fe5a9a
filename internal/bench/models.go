package bench

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/chaos"
	"repro/internal/mcheck"
)

// The tables' legs that run an mcheck model: the exhaustive K=1 walks,
// and the seeded kill and crash sweeps on both substrates, which replay
// a model's instances instead of restating its workload and audit. A
// failure's error text is a .sched file: comment lines naming the
// scenario and what went wrong, then the schedule, which `rascheck
// -replay` and `rasvm -replay-sched` re-execute.

// schedError renders a failing schedule as an error whose text parses
// back (mcheck.Parse) to s.
func schedError(scenario, what string, s *mcheck.Schedule) error {
	head := "# " + strings.ReplaceAll(strings.TrimRight(scenario+": "+what, "\n"), "\n", "\n# ")
	return errors.New(head + "\n" + string(s.Format()))
}

// exhaustiveK1 walks every single-decision schedule of a model and
// returns how many it ran; a violation fails with the minimized
// counterexample. These walks do not run through a Harness, so they add
// nothing to a table's run counters.
func exhaustiveK1(scenario, model string, params map[string]string) (int, error) {
	m, err := mcheck.BuildModel(model, params)
	if err != nil {
		return 0, err
	}
	rep, err := (&mcheck.Explorer{Model: m, MaxDecisions: 1}).Exhaustive()
	if err != nil {
		return 0, err
	}
	if cex := rep.Counterexample; cex != nil {
		return 0, schedError(scenario, cex.Violations[0].String(), cex.Schedule)
	}
	if !rep.Passed() {
		return 0, fmt.Errorf("%s: %v", scenario, rep)
	}
	return rep.Schedules, nil
}

// sweep runs n seeded schedules of a model through h and sums their
// outcomes (MaxLoss is the largest any schedule saw). It calibrates the
// ordinal span with the undisturbed run, then gives schedule i the
// decisions plan(span, i) derives, sorted and one per ordinal. A crash
// decision that never fired fails the sweep, and so does a violation, in
// calibration too — unless expect names its kind: a planted-bug control
// passes when at least one schedule reports an expect violation and none
// reports another kind.
func (h *Harness) sweep(scenario, model string, params map[string]string, n int, expect string, plan func(span, i uint64) []mcheck.Decision) (mcheck.Outcome, error) {
	var sum mcheck.Outcome
	m, err := mcheck.BuildModel(model, params)
	if err != nil {
		return sum, err
	}
	opt := mcheck.Options{Run: h.run}
	caught := false
	// run runs one schedule and returns its outcome and cursor.
	run := func(what string, ds []mcheck.Decision) (mcheck.Outcome, uint64, error) {
		in, err := m.New(ds, opt)
		if err != nil {
			return mcheck.Outcome{}, 0, err
		}
		in.RunToEnd()
		fail := func(why string) error {
			return schedError(scenario+": "+what, why, &mcheck.Schedule{Model: m.Name(), Params: m.Params(), Decisions: ds})
		}
		for _, v := range in.Violations() {
			if expect == "" || v.Kind != expect {
				return mcheck.Outcome{}, 0, fail(v.String())
			}
			caught = true
		}
		var crashes uint64
		for _, d := range ds {
			if d.Act == mcheck.ActCrash || d.Act == mcheck.ActCrashVolatile || d.Act == mcheck.ActCrashTorn {
				crashes++
			}
		}
		out := mcheck.OutcomeOf(in)
		if out.Crashes != crashes {
			return out, 0, fail(fmt.Sprintf("%d of %d crash decisions fired", out.Crashes, crashes))
		}
		return out, in.Cursor(), nil
	}
	_, span, err := run("calibration", nil)
	if err != nil {
		return sum, err
	}
	for i := 0; i < n; i++ {
		ds := plan(span, uint64(i))
		slices.SortFunc(ds, func(a, b mcheck.Decision) int { return cmp.Compare(a.At, b.At) })
		ds = slices.CompactFunc(ds, func(a, b mcheck.Decision) bool { return a.At == b.At })
		out, _, err := run(fmt.Sprintf("schedule %d of %d", i, n), ds)
		if err != nil {
			return sum, err
		}
		sum.Kills += out.Kills
		sum.Crashes += out.Crashes
		sum.Repairs += out.Repairs
		sum.Written += out.Written
		sum.Replayed += out.Replayed
		sum.MaxLoss = max(sum.MaxLoss, out.MaxLoss)
	}
	if expect != "" && !caught {
		return sum, fmt.Errorf("%s: no schedule of %d reported %s; the planted bug is gone", scenario, n, expect)
	}
	return sum, nil
}

// killPlan gives schedule s one to three kills, at ordinals derived from
// (seed, salt, s).
func killPlan(seed, salt uint64) func(span, s uint64) []mcheck.Decision {
	return func(span, s uint64) []mcheck.Decision {
		n := 1 + chaos.Derive(seed, salt, s)%3
		ds := make([]mcheck.Decision, 0, n)
		for i := uint64(0); i < n; i++ {
			ds = append(ds, mcheck.Decision{At: chaos.DeriveOrdinal(span, seed, salt, s, i), Act: mcheck.ActKill})
		}
		return ds
	}
}

// crashPlan gives schedule c one crash of kind act, at the ordinal
// derived from (seed, salt, c).
func crashPlan(seed, salt uint64, act mcheck.Action) func(span, c uint64) []mcheck.Decision {
	return func(span, c uint64) []mcheck.Decision {
		return []mcheck.Decision{{At: chaos.DeriveOrdinal(span, seed, salt, c), Act: act}}
	}
}

package bench

import (
	"strings"
	"testing"

	"repro/internal/mcheck"
)

// replayFailure parses a model leg's error text as a .sched file, replays
// it, and requires the replay's first violation to be the one the error
// reports.
func replayFailure(t *testing.T, err error) *mcheck.Schedule {
	t.Helper()
	if err == nil {
		t.Fatal("the leg passed; want a failure")
	}
	s, perr := mcheck.Parse([]byte(err.Error()))
	if perr != nil {
		t.Fatalf("error text is not a .sched file: %v\n%s", perr, err)
	}
	m, berr := mcheck.BuildSchedule(s)
	if berr != nil {
		t.Fatal(berr)
	}
	vio, rerr := mcheck.RunOnce(m, s.Decisions, mcheck.Options{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(vio) == 0 {
		t.Fatalf("the schedule replays clean:\n%s", err)
	}
	want := strings.ReplaceAll(strings.TrimRight(vio[0].String(), "\n"), "\n", "\n# ") + "\n# mcheck schedule\n"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("replayed first violation\n%s\nis not the one the error reports:\n%s", want, err)
	}
	return s
}

// A bench sweep's audit is its model's audit: a sweep over a planted
// bug fails on either substrate — the uniproc missing-fence memfs
// journal and the vmach missing-fence guest journal — and its error
// replays through the checker to the same first violation.
func TestSweepAuditIsTheModels(t *testing.T) {
	for _, c := range []struct {
		scenario, model string
		params          map[string]string
		plan            func(span, i uint64) []mcheck.Decision
	}{
		{"memfs/nofence", "memfs-journal", map[string]string{"variant": "nofence"}, crashPlan(1, 0x8A, mcheck.ActCrashVolatile)},
		{"vmach/nofence-torn", "journal", map[string]string{"mode": "nofence", "torn": "1"}, crashPlan(1, 0x6A, mcheck.ActCrashTorn)},
	} {
		h := &Harness{}
		_, err := h.sweep(c.scenario, c.model, c.params, 24, "", c.plan)
		s := replayFailure(t, err)
		if s.Model != c.model || len(s.Decisions) != 1 {
			t.Errorf("%s: reproducer %+v is not one crash of %s", c.scenario, s, c.model)
		}
		for k, v := range c.params {
			if s.Params[k] != v {
				t.Errorf("%s: reproducer has %s=%q, want %q", c.scenario, k, s.Params[k], v)
			}
		}
		if h.Stats.Runs == 0 {
			t.Errorf("%s: the sweep's runs bypassed the harness", c.scenario)
		}
	}
}

// A control sweep passes only while its planted bug is caught: over the
// well-flushed persist guest, which never loses more than one increment,
// the control fails.
func TestSweepControlGuard(t *testing.T) {
	_, err := (&Harness{}).sweep("vmach/flushed-control", "persist", map[string]string{"workers": "2", "iters": "6", "variant": "flushed"},
		24, "persist-loss", crashPlan(1, 0x59, mcheck.ActCrashVolatile))
	if err == nil || !strings.Contains(err.Error(), "planted bug is gone") {
		t.Fatalf("a control over the flushed guest: err = %v", err)
	}
}

// A sweep fails when its undisturbed calibration run already violates
// (here the workload outgrows the checker's cycle budget) and when a
// derived crash never fires.
func TestSweepFailsCalibrationAndUnfiredCrashes(t *testing.T) {
	_, err := (&Harness{}).sweep("uniproc/over-budget", "uni-rme", map[string]string{"workers": "1", "iters": "10000000"},
		1, "", killPlan(1, 0x55))
	if err == nil || !strings.Contains(err.Error(), "calibration: budget: ") {
		t.Fatalf("an over-budget calibration run: err = %v", err)
	}
	if s, perr := mcheck.Parse([]byte(err.Error())); perr != nil || len(s.Decisions) != 0 {
		t.Errorf("want the empty schedule as the reproducer, got %v (%v)", s, perr)
	}

	past := func(span, i uint64) []mcheck.Decision {
		return []mcheck.Decision{{At: span + 1, Act: mcheck.ActCrashTorn}}
	}
	_, err = (&Harness{}).sweep("pstruct/past-end", "pstruct", nil, 1, "", past)
	if err == nil || !strings.Contains(err.Error(), "0 of 1 crash decisions fired") {
		t.Fatalf("a crash past the run's end: err = %v", err)
	}
	if _, perr := mcheck.Parse([]byte(err.Error())); perr != nil {
		t.Errorf("error text is not a .sched file: %v", perr)
	}
}

// An exhaustive leg that finds a violation fails with the minimized
// counterexample as its reproducer.
func TestExhaustiveK1FailsWithCounterexample(t *testing.T) {
	_, err := exhaustiveK1("persist/underflush", "persist",
		map[string]string{"workers": "1", "iters": "3", "variant": "underflush"})
	if s := replayFailure(t, err); len(s.Decisions) != 1 {
		t.Errorf("counterexample %v is not the one-decision persist-loss", s.Decisions)
	}
}

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

// A bench sweep's audit is its model's audit: the sweep over the planted
// missing-fence journal fails, and its error replays through the checker
// to the same first violation.
func TestSweepAuditIsTheModels(t *testing.T) {
	h := &Harness{}
	_, err := h.sweep("memfs/nofence", "memfs-journal", map[string]string{"variant": "nofence"},
		24, crashPlan(1, 0x8A, mcheck.ActCrashVolatile))
	s := replayFailure(t, err)
	if s.Model != "memfs-journal" || s.Params["variant"] != "nofence" || len(s.Decisions) != 1 {
		t.Errorf("reproducer %+v is not one crash of the nofence journal", s)
	}
	if h.Stats.Runs == 0 {
		t.Error("the sweep's runs bypassed the harness")
	}
}

// A sweep fails when its undisturbed calibration run already violates
// (here the workload outgrows the checker's cycle budget) and when a
// derived crash never fires.
func TestSweepFailsCalibrationAndUnfiredCrashes(t *testing.T) {
	_, err := (&Harness{}).sweep("uniproc/over-budget", "uni-rme", map[string]string{"workers": "1", "iters": "10000000"},
		1, killPlan(1, 0x55))
	if err == nil || !strings.Contains(err.Error(), "calibration: budget: ") {
		t.Fatalf("an over-budget calibration run: err = %v", err)
	}
	if s, perr := mcheck.Parse([]byte(err.Error())); perr != nil || len(s.Decisions) != 0 {
		t.Errorf("want the empty schedule as the reproducer, got %v (%v)", s, perr)
	}

	past := func(span, i uint64) []mcheck.Decision {
		return []mcheck.Decision{{At: span + 1, Act: mcheck.ActCrashTorn}}
	}
	_, err = (&Harness{}).sweep("pstruct/past-end", "pstruct", nil, 1, past)
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

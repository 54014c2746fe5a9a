package mcheck

import (
	"strings"
	"testing"
)

// The well-flushed persistent counter, on both substrates (the persist
// guest on vmach, core.PersistentMutex in uni-persist), survives a
// volatile crash at EVERY persist-operation boundary — each state the
// protocol can leave in NVM is crashed into, rebooted from, and must
// recover to the exact final counter (and, in persist, with the lock
// free). K=1 is the full "crash at every flush boundary" sweep.
func TestExhaustivePersistCrashAtEveryBoundary(t *testing.T) {
	for _, c := range []struct {
		model string
		// floor is the protocol's persist boundaries: 3 persist points x
		// (flush+fence) per passage, x 2 passages for persist's default
		// workers=1 iters=2 and x 4 for uni-persist's 2x2. Anything
		// smaller means the cursor is not counting persist ops.
		floor int
	}{{"persist", 12}, {"uni-persist", 24}} {
		t.Run(c.model, func(t *testing.T) {
			rep, err := (&Explorer{Model: build(t, c.model, nil), MaxDecisions: 1}).Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
			}
			if rep.Schedules < c.floor {
				t.Errorf("only %d schedules — the persist-op horizon is too short to mean anything", rep.Schedules)
			}
			t.Logf("%v", rep)
		})
	}
}

// K=2 lands the second crash inside recovery itself: a reboot's repair
// sequence is made of the same persist operations, so its boundaries are
// ordinals too, and crash-during-recovery must also recover.
func TestExhaustivePersistCrashDuringRecovery(t *testing.T) {
	for _, model := range []string{"persist", "uni-persist"} {
		t.Run(model, func(t *testing.T) {
			rep, err := (&Explorer{Model: build(t, model, nil), MaxDecisions: 2}).Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
			}
			t.Logf("%v", rep)
		})
	}
}

// The deliberately under-flushed variant (P2/P3 persist points removed):
// increments pile up in the volatile tier, a late crash loses more than
// the one-increment bound, and the checker must catch it, shrink it to a
// single crash decision, and serialize a .sched that replays.
func TestUnderflushedCaughtAndShrunk(t *testing.T) {
	over := map[string]string{"workers": "1", "iters": "3", "variant": "underflush"}
	m := build(t, "persist", over)
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the under-flushed variant: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n != 1 {
		t.Errorf("counterexample has %d decisions, want 1 (a single well-placed crash)", n)
	}
	if cex.Schedule.Decisions[0].Act != ActCrashVolatile {
		t.Errorf("counterexample action = %v, want crash-volatile", cex.Schedule.Decisions[0].Act)
	}
	found := false
	for _, v := range cex.Violations {
		if v.Kind == "persist-loss" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include persist-loss", cex.Violations)
	}

	// Round-trip through .sched and replay cold: the counterexample is a
	// file anyone can re-execute.
	path := t.TempDir() + "/underflush.sched"
	if err := cex.Schedule.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Decisions[0].Act != ActCrashVolatile {
		t.Fatalf("crash-volatile did not survive .sched serialization: %+v", back.Decisions)
	}
	rm, err := BuildSchedule(back)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := RunOnce(rm, back.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("deserialized counterexample does not replay (repro: go run ./cmd/rascheck -replay %s)", path)
	}
	if !strings.Contains(vio[0].Kind, "persist") {
		t.Errorf("replayed violation kind %q, want persist-loss", vio[0].Kind)
	}
	t.Logf("%v", rep)
}

// The well-flushed protocol under the same bounds as the planted bug: the
// only difference between pass and catch is the missing persist points.
func TestWellFlushedPassesWhereUnderflushedFails(t *testing.T) {
	over := map[string]string{"workers": "1", "iters": "3"}
	e := &Explorer{Model: build(t, "persist", over), MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
}

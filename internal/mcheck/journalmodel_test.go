package mcheck

import (
	"strings"
	"testing"
)

// The guest WAL survives a clean crash at EVERY persist boundary: each
// NVM image the redo protocol can leave behind is crashed into, audited,
// rebooted from, and must end with va == vb == target.
func TestExhaustiveJournalCrashAtEveryBoundary(t *testing.T) {
	for _, mode := range []string{"redo", "undo"} {
		e := &Explorer{Model: build(t, "journal", map[string]string{"mode": mode}), MaxDecisions: 1}
		rep, err := e.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("mode=%s: %v\nrepro: %s", mode, rep, reproLine(rep))
		}
		// target=2 runs two transactions of ~6 persist ops each, plus the
		// final boot's recovery probe; a much smaller horizon means the
		// cursor is not counting persist ops.
		if rep.Schedules < 10 {
			t.Errorf("mode=%s: only %d schedules — the persist-op horizon is too short", mode, rep.Schedules)
		}
		t.Logf("mode=%s: %v", mode, rep)
	}
}

// The same sweep with torn write-backs: a crash now persists only a
// prefix of each in-flight line, so the log record can be spliced from
// two transactions — the checksum must reject every splice, and the
// two data words must never be split without a durable record.
func TestExhaustiveJournalTornCrashes(t *testing.T) {
	for _, mode := range []string{"redo", "undo"} {
		over := map[string]string{"mode": mode, "torn": "1"}
		e := &Explorer{Model: build(t, "journal", over), MaxDecisions: 1}
		rep, err := e.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("mode=%s torn: %v\nrepro: %s", mode, rep, reproLine(rep))
		}
	}
}

// K=2 lands the second crash inside journal recovery itself. Recovery is
// constant stores (the record's values), so re-running it after a crash
// at any of its own persist boundaries must be idempotent.
func TestExhaustiveJournalCrashDuringRecovery(t *testing.T) {
	e := &Explorer{Model: build(t, "journal", nil), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The planted missing-fence journal: the log record never reaches NVM,
// so a torn crash that persists va's write-back but not vb's leaves the
// words split with nothing to repair them from. The checker must catch
// it, shrink it to a single torn-crash decision, and serialize a .sched
// that replays — including the crash-torn action, whose tear is derived
// from the decision ordinal and therefore survives the round trip.
func TestJournalNofenceCaughtAndShrunk(t *testing.T) {
	over := map[string]string{"mode": "nofence", "torn": "1"}
	m := build(t, "journal", over)
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the missing-fence journal: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n != 1 {
		t.Errorf("counterexample has %d decisions, want 1 (a single well-placed torn crash)", n)
	}
	if cex.Schedule.Decisions[0].Act != ActCrashTorn {
		t.Errorf("counterexample action = %v, want crash-torn", cex.Schedule.Decisions[0].Act)
	}
	found := false
	for _, v := range cex.Violations {
		if v.Kind == "journal-consistency" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include journal-consistency", cex.Violations)
	}

	path := t.TempDir() + "/nofence.sched"
	if err := cex.Schedule.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Decisions[0].Act != ActCrashTorn {
		t.Fatalf("crash-torn did not survive .sched serialization: %+v", back.Decisions)
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
	if !strings.Contains(vio[0].Kind, "journal") {
		t.Errorf("replayed violation kind %q, want journal-consistency", vio[0].Kind)
	}
	t.Logf("%v", rep)
}

// The well-fenced journal under the same torn-crash bounds the planted
// bug fails: the only difference is the log record's flush+fence.
func TestWellFencedJournalPassesWhereNofenceFails(t *testing.T) {
	over := map[string]string{"mode": "redo", "torn": "1"}
	e := &Explorer{Model: build(t, "journal", over), MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
}

// The journaled memfs: a crash at every persist boundary — clean and
// torn — remounts to exactly the state of the returned operations (plus
// at most the one in flight).
func TestExhaustiveMemfsJournal(t *testing.T) {
	for _, torn := range []string{"0", "1"} {
		e := &Explorer{Model: build(t, "memfs-journal", map[string]string{"torn": torn}), MaxDecisions: 1}
		rep, err := e.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("torn=%s: %v\nrepro: %s", torn, rep, reproLine(rep))
		}
		if rep.Schedules < 20 {
			t.Errorf("torn=%s: only %d schedules — the persist-op horizon is too short", torn, rep.Schedules)
		}
		t.Logf("torn=%s: %v", torn, rep)
	}
}

// The SkipFence journal option: a completed operation's record is still
// in the volatile tier when the crash hits, and the remount is missing
// an operation that returned.
func TestMemfsJournalSkipFenceCaught(t *testing.T) {
	m := build(t, "memfs-journal", map[string]string{"variant": "nofence"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the SkipFence journal: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n != 1 {
		t.Errorf("counterexample has %d decisions, want 1", n)
	}
	found := false
	for _, v := range cex.Violations {
		if v.Kind == "journal-loss" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include journal-loss", cex.Violations)
	}
	t.Logf("%v", rep)
}

// The planted front-to-back mount zeroing (variant=zeroforward): a torn
// append leaves one record's debris, a torn crash inside the next mount
// persists the zeroed header but not the words after it, and the mount
// after that reads a zero header over surviving debris. The tail audit
// must catch it at K=2, shrink it to two decisions and write a .sched
// that replays; the shipped back-to-front order passes the same walk.
func TestMemfsJournalZeroForwardCaughtAndShrunk(t *testing.T) {
	over := map[string]string{"variant": "zeroforward", "torn": "1"}
	rep, err := (&Explorer{Model: build(t, "memfs-journal", over), MaxDecisions: 2}).Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the front-to-back mount zeroing: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n != 2 {
		t.Errorf("counterexample has %d decisions, want 2 (a torn append, then a torn crash inside the mount)", n)
	}
	if cex.Violations[0].Kind != "journal-tail" {
		t.Errorf("first violation %v, want journal-tail", cex.Violations[0])
	}
	path := t.TempDir() + "/zeroforward.sched"
	if err := cex.Schedule.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := BuildSchedule(back)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := RunOnce(rm, back.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 || vio[0].Kind != "journal-tail" {
		t.Fatalf("counterexample replays as %v, want journal-tail (repro: go run ./cmd/rascheck -replay %s)", vio, path)
	}
	t.Logf("%v: %v", rep, cex.Schedule.Decisions)

	over["variant"] = "fenced"
	rep, err = (&Explorer{Model: build(t, "memfs-journal", over), MaxDecisions: 2}).Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("back-to-front zeroing: %v\nrepro: %s", rep, reproLine(rep))
	}
}

// Every persistent-structure flavor — stack and queue, undo and redo,
// clean and torn crashes — recovers to the state after exactly the
// returned operations (or the one in flight) at every persist boundary.
func TestExhaustivePstructAllFlavors(t *testing.T) {
	for _, kind := range []string{"stack", "queue"} {
		for _, mode := range []string{"undo", "redo"} {
			for _, torn := range []string{"0", "1"} {
				over := map[string]string{"struct": kind, "mode": mode, "torn": torn}
				e := &Explorer{Model: build(t, "pstruct", over), MaxDecisions: 1}
				rep, err := e.Exhaustive()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Passed() {
					t.Fatalf("%s/%s torn=%s: %v\nrepro: %s", kind, mode, torn, rep, reproLine(rep))
				}
			}
		}
	}
}

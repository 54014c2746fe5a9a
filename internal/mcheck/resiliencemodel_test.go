package mcheck

import (
	"strings"
	"testing"
)

// The shipped exactly-once server survives a crash at EVERY global
// persist ordinal of the supervised campaign — volatile rewind and torn
// write-back alike. One decision is one machine crash anywhere in any
// life, including inside a later life's recovery.
func TestExhaustiveResilienceCrashAnywhere(t *testing.T) {
	for _, kind := range []string{"volatile", "torn"} {
		e := &Explorer{Model: build(t, "resilience", map[string]string{"kind": kind}), MaxDecisions: 1}
		rep, err := e.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("kind=%s: %v\nrepro: %s", kind, rep, reproLine(rep))
		}
		// Two exactly-once applies are ~6 persist ops plus recovery's
		// replay fences; far fewer schedules means the cross-boot ordinal
		// offset is not accumulating.
		if rep.Schedules < 10 {
			t.Errorf("kind=%s: only %d schedules — the global persist-op horizon is too short", kind, rep.Schedules)
		}
		t.Logf("kind=%s: %v", kind, rep)
	}
}

// K=2 lands the second crash inside the recovery (or the degraded
// aftermath) of the first — the crash-loop/demotion path is inside the
// covered space because the supervisor itself runs under the model.
func TestExhaustiveResilienceCrashDuringRecovery(t *testing.T) {
	e := &Explorer{Model: build(t, "resilience", nil), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// The planted missing-dedup server: recovery replays every surviving WAL
// record as a fresh increment, so any crash after the first durable
// effect double-applies it on the next boot. The empty schedule passes
// (no crash, no replay), so the checker must catch it, shrink it to ONE
// decision, and the serialized .sched must replay to the same violation.
func TestResilienceNoDedupCaughtAndShrunk(t *testing.T) {
	m := build(t, "resilience", map[string]string{"variant": "nodedup"})
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the missing-dedup replay: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n > 1 {
		t.Errorf("counterexample has %d decisions, want <= 1 (a single well-placed crash)", n)
	}
	found := false
	for _, v := range cex.Violations {
		if v.Kind == "exactly-once" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include exactly-once", cex.Violations)
	}

	path := t.TempDir() + "/nodedup.sched"
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
	if len(vio) == 0 {
		t.Fatalf("deserialized counterexample does not replay (repro: go run ./cmd/rascheck -replay %s)", path)
	}
	if !strings.Contains(vio[0].Kind, "exactly-once") {
		t.Errorf("replayed violation kind %q, want exactly-once", vio[0].Kind)
	}
	t.Logf("%v", rep)
}

// The registry rejects parameters that would silently check a different
// system than a .sched file claims.
func TestResilienceModelParamValidation(t *testing.T) {
	for _, over := range []map[string]string{
		{"variant": "mystery"},
		{"kind": "emp"},
		{"clients": "0"},
		{"iters": "x"},
	} {
		if _, err := BuildModel("resilience", over); err == nil {
			t.Errorf("BuildModel(resilience, %v): want error, got nil", over)
		}
	}
}

package mcheck

import "testing"

// The uniprocessor-only RAS gives no cross-CPU atomicity: a forced switch
// between its load and store on true SMP loses an update. The checker
// must find that interleaving within K<=2 switches — the paper's §6 point
// that restartable sequences do not generalize to multiprocessors without
// a hardware primitive underneath.
func TestSMPExhaustiveCatchesRASOnly(t *testing.T) {
	m := build(t, "smp-counter", map[string]string{"lock": "ras-only"})
	e := &Explorer{Model: m, MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the SMP-unsafe RAS: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n > 2 {
		t.Errorf("counterexample has %d decisions, want <= 2", n)
	}
	// Replay the minimized switch schedule cold.
	vio, err := RunOnce(m, cex.Schedule.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("minimized counterexample does not replay: %v", cex.Schedule.Decisions)
	}
	t.Logf("%v", rep)
}

// Random mode over the smp switch space reproduces from its seed.
func TestSMPRandomDeterministic(t *testing.T) {
	m := build(t, "smp-counter", map[string]string{"lock": "ras-only"})
	run := func() *Report {
		e := &Explorer{Model: m, MaxDecisions: 2}
		rep, err := e.Random(7, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Counterexample == nil || b.Counterexample == nil {
		t.Skip("seed 7 did not hit the window; exhaustive coverage is tested above")
	}
	da, db := a.Counterexample.Schedule.Decisions, b.Counterexample.Schedule.Decisions
	if len(da) != len(db) {
		t.Fatalf("same seed, different counterexamples: %v vs %v", da, db)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed, different counterexamples: %v vs %v", da, db)
		}
	}
}

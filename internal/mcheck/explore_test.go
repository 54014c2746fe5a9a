package mcheck

import (
	"strings"
	"testing"
)

func build(t *testing.T, name string, over map[string]string) Model {
	t.Helper()
	m, err := BuildModel(name, over)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reproLine is what a failing test prints: the copy-paste command that
// replays the exact exploration (satellite: one-line repro on failure).
func reproLine(rep *Report) string {
	cmd := "go run ./cmd/rascheck -model " + rep.ModelName
	if ps := paramString(rep.Params); ps != "" {
		cmd += " -params " + ps
	}
	cmd += " -mode " + rep.Mode
	if rep.Mode == "random" {
		cmd += " -seed " + hex(rep.Seed) + " -schedules 64"
	}
	return cmd
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	var b [16]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = digits[v&15]
		v >>= 4
	}
	return "0x" + string(b[i:])
}

// The paper's Figure-3 sequence (registered TAS) survives a preemption at
// EVERY instruction boundary, alone and in pairs: the bounded exhaustive
// walk over 2 workers must find no violation. This is the acceptance
// criterion "rascheck exhaustively verifies mutual exclusion for the
// Figure-3 counter RAS (2 threads, preemption at every instruction)".
func TestExhaustiveFigure3Registered(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", map[string]string{"mech": "registered"}), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	if rep.Schedules < 100 {
		t.Errorf("only %d schedules explored — bound too tight to mean anything", rep.Schedules)
	}
	t.Logf("%v", rep)
}

// The unprotected control (plain TAS, no recovery) must be caught: there
// is an interleaving of two forced preemptions that breaches mutual
// exclusion, and the checker must find and shrink it.
func TestExhaustiveCatchesUnprotected(t *testing.T) {
	m := build(t, "counter", map[string]string{"mech": "none"})
	e := &Explorer{Model: m, MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the unprotected TAS: %v", rep)
	}
	if len(cex.Schedule.Decisions) == 0 || len(cex.Schedule.Decisions) > 2 {
		t.Errorf("counterexample has %d decisions, want 1..2", len(cex.Schedule.Decisions))
	}
	// The minimized schedule must still fail when replayed cold.
	vio, err := RunOnce(m, cex.Schedule.Decisions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) == 0 {
		t.Fatalf("minimized counterexample does not replay: %v", cex.Schedule.Decisions)
	}
	t.Logf("%v", rep)
}

// The deliberately broken two-store sequence: the verifier rejects it,
// the harness installs it anyway, and the checker must catch it with a
// counterexample of at most 6 steps (it shrinks to a single preemption
// between the two stores), which must replay from its .sched
// serialization. This is the second acceptance criterion.
func TestBrokenTwoStoreCaught(t *testing.T) {
	m := build(t, "broken2store", nil)
	e := &Explorer{Model: m, MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	cex := rep.Counterexample
	if cex == nil {
		t.Fatalf("checker missed the two-store sequence: %v", rep)
	}
	if n := len(cex.Schedule.Decisions); n > 6 {
		t.Errorf("counterexample has %d decisions, want <= 6", n)
	}
	// Round-trip through the .sched serialization and replay.
	path := t.TempDir() + "/broken.sched"
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
	if !strings.Contains(vio[0].Kind, "counter") {
		t.Errorf("unexpected violation kind %q", vio[0].Kind)
	}
	t.Logf("%v", rep)
}

// The recoverable owner+epoch lock survives a kill at EVERY instruction
// boundary: dead-owner repair, audited by watchpoints, holds across the
// whole single-kill schedule space.
func TestExhaustiveRecoverableKills(t *testing.T) {
	e := &Explorer{Model: build(t, "recoverable", nil), MaxDecisions: 1}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("%v\nrepro: %s", rep, reproLine(rep))
	}
	t.Logf("%v", rep)
}

// Random mode: seeded sampling must find the broken two-store violation
// (any sample that preempts between the stores fails), shrink it, and be
// exactly reproducible from the seed.
func TestRandomFindsAndReplays(t *testing.T) {
	m := build(t, "broken2store", nil)
	run := func() *Report {
		e := &Explorer{Model: m, MaxDecisions: 3}
		rep, err := e.Random(0xDECAF, 200, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Counterexample == nil {
		t.Fatalf("random exploration missed the two-store sequence: %v", a)
	}
	if b.Counterexample == nil {
		t.Fatal("second identical exploration disagrees")
	}
	if got, want := a.Counterexample.Schedule.ParamString(), b.Counterexample.Schedule.ParamString(); got != want {
		t.Errorf("replayed params differ: %q vs %q", got, want)
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
	t.Logf("%v", a)
}

// Random mode with a horizon shorter than K: a sample can carry at most
// as many decisions as there are distinct ordinals, and the walk ends.
func TestRandomHorizonBelowK(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", nil), MaxDecisions: 2, Horizon: 1}
	rep, err := e.Random(1, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || rep.Schedules != 21 {
		t.Errorf("want 21 passing schedules (probe + 20): %v", rep)
	}
}

// Pruning must fire: two different prefixes frequently park the kernel in
// the same normalized state, and the walk gets cheaper for it.
func TestPruningFires(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", map[string]string{"mech": "registered"}), MaxDecisions: 2}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Errorf("no prefixes pruned in %d schedules — state hashing is not collapsing anything", rep.Schedules)
	}
	if rep.States == 0 {
		t.Error("no states recorded")
	}
}

// The MaxSchedules safety cap truncates the walk and says so.
func TestTruncation(t *testing.T) {
	e := &Explorer{Model: build(t, "counter", nil), MaxDecisions: 2, MaxSchedules: 5}
	rep, err := e.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Passed() {
		t.Errorf("cap of 5 did not truncate: %v", rep)
	}
}

// The random explorer's streams are pinned: these draws were computed
// with the generator's earlier private SplitMix64 finalizer, so moving
// it onto chaos.Mix left every sample, and so every random-mode
// counterexample, unchanged.
func TestRandStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		seed, i uint64
		draws   [3]uint64
	}{
		{0x0, 0, [3]uint64{0xc80b5150a55bd0f2, 0x86f7849c2afc3944, 0x2f34766fd5635f70}},
		{0x1, 0, [3]uint64{0x60ee9e9e901eca8a, 0x9d03c9fd250044ca, 0x8178cc2ce13469cf}},
		{0xc0ffee, 0, [3]uint64{0xc36637f76a7d03a, 0x904e5aed507cea50, 0xcb90c63dbf7045b9}},
		{0xc0ffee, 7, [3]uint64{0xe2130512127fca0c, 0xdfd04613ce12d83c, 0x81b133a4d4018c88}},
		{0xffffffffffffffff, 199, [3]uint64{0x268d57bd9b9973a9, 0xe73458822f60504d, 0xc72f8fe994a5acf0}},
	} {
		r := newRand(c.seed, c.i)
		for k, want := range c.draws {
			if got := r.next(); got != want {
				t.Errorf("seed %#x sample %d draw %d = %#x, want %#x", c.seed, c.i, k, got, want)
			}
		}
	}
}

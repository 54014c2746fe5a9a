package mcheck

import (
	"fmt"
	"testing"
)

// TestSuite walks every canned suite entry exactly once, each as a
// parallel subtest; no other test in the package walks Suite() entries.
// Every entry must match its expectation, and every walk must cover its
// schedule space — a Truncated report means the walk silently stopped
// proving anything. The suite's shape is pinned, without walking, by
// TestSuiteBudgetGuard and TestPercpuSuiteEntries.
func TestSuite(t *testing.T) {
	for _, ent := range Suite() {
		name := fmt.Sprintf("%s{%s},%s,K=%d", ent.Model, paramString(ent.Over), ent.Mode, ent.K)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := RunEntry(ent, Options{})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Report.Truncated {
				t.Errorf("exhaustive walk truncated — the stated budget no longer covers the space")
			}
			if !res.OK {
				t.Errorf("outcome does not match expectation %q: %v\nrepro: %s", ent.Expect, res.Report, res.ReproCommand())
			}
		})
	}
}

// The suite's CI budget guard. The canned suite is the single definition
// of what the checker proves, so its shape is pinned: an entry added or
// dropped must show up as a deliberate diff here. And every persist-
// family entry must be walked exhaustively; TestSuite checks that the
// walk is not truncated.
func TestSuiteBudgetGuard(t *testing.T) {
	ents := Suite()
	if len(ents) != 42 {
		t.Errorf("suite has %d entries, want 42 — update this pin with the suite change that caused it", len(ents))
	}
	persistFamily := map[string]bool{
		"persist": true, "journal": true, "memfs-journal": true, "pstruct": true,
		"resilience": true,
	}
	n := 0
	for _, ent := range ents {
		if !persistFamily[ent.Model] {
			continue
		}
		n++
		if ent.Mode != "exhaustive" {
			t.Errorf("%s %v: persist-family suite entries must be exhaustive, got %q", ent.Model, ent.Over, ent.Mode)
		}
	}
	if n < 15 {
		t.Errorf("only %d persist-family entries in the suite, want >= 15", n)
	}
}

// The three percpu suite entries with planted defects plus the four safe
// ones; TestSuite checks each against its expectation.
func TestPercpuSuiteEntries(t *testing.T) {
	n := 0
	for _, ent := range Suite() {
		switch ent.Model {
		case "percpu-queue", "percpu-freelist", "percpu-server":
			n++
		}
	}
	if n != 7 {
		t.Errorf("suite carries %d percpu entries, want 7", n)
	}
}

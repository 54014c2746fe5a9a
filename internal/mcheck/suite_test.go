package mcheck

import (
	"fmt"
	"slices"
	"testing"
)

// suiteGolden is the oracle for every suite walk: the schedule, state
// and prune counts, the minimized counterexample and its first violation
// each entry produces.
// A change to how the checker walks (pruning, caching, stepping) must
// leave every row identical; only a deliberate change to a model or an
// entry may edit it. The rows sum to 153,382 schedules, 138,037 pruned.
var suiteGolden = map[string]struct {
	schedules, states, pruned int
	cex                       []Decision
	vio                       string // the first violation's String(), the .sched Note
}{
	"counter{mech=registered},exhaustive,K=2":                      {3673, 1071, 2519, nil, ""},
	"counter{mech=designated},exhaustive,K=2":                      {2904, 859, 1974, nil, ""},
	"counter{mech=none},exhaustive,K=2":                            {2542, 870, 1627, []Decision{{45, ActPreempt}, {55, ActPreempt}}, "mutual-exclusion: t1 stored counter 0->1 while t2 holds the lock"},
	"broken2store{},exhaustive,K=1":                                {9, 7, 1, []Decision{{8, ActPreempt}}, "counter-exact: counter = 3, want 2 (restart re-applied a committed store)"},
	"recoverable{},exhaustive,K=1":                                 {116, 115, 0, nil, ""},
	"smp-counter{lock=hybrid},exhaustive,K=2":                      {109193, 3036, 106097, nil, ""},
	"smp-counter{lock=llsc},exhaustive,K=2":                        {25644, 509, 25113, nil, ""},
	"smp-counter{lock=ras-only},exhaustive,K=2":                    {276, 168, 107, []Decision{{7, ActSwitch}, {20, ActSwitch}}, "lost-update: counter store 1->1 is not an increment"},
	"uni-counter{sync=ras},exhaustive,K=2":                         {13, 0, 0, nil, ""},
	"uni-counter{sync=none},exhaustive,K=2":                        {2, 0, 0, []Decision{{1, ActPreempt}}, "counter-exact: counter = 1, want 2"},
	"uni-rme{},exhaustive,K=1":                                     {29, 0, 0, nil, ""},
	"persist{iters=2,workers=1},exhaustive,K=1":                    {13, 12, 0, nil, ""},
	"persist{iters=3,variant=underflush,workers=1},exhaustive,K=1": {6, 4, 0, []Decision{{5, ActCrashVolatile}}, "persist-loss: crash at persist op 5: counter is 2 volatile but 0 in NVM — 2 increments lost, bound is 1"},
	"journal{mode=redo},exhaustive,K=1":                            {13, 12, 0, nil, ""},
	"journal{mode=redo,torn=1},exhaustive,K=1":                     {13, 12, 0, nil, ""},
	"journal{mode=undo,torn=1},exhaustive,K=1":                     {15, 14, 0, nil, ""},
	"journal{mode=redo},exhaustive,K=2":                            {116, 52, 63, nil, ""},
	"journal{mode=nofence,torn=1},exhaustive,K=1":                  {2, 0, 0, []Decision{{1, ActCrashTorn}}, "journal-consistency: crash at persist op 1: recovered state va=1 vb=0 — the words diverged and no durable record repairs them"},
	"memfs-journal{},exhaustive,K=1":                               {47, 0, 0, nil, ""},
	"memfs-journal{torn=1},exhaustive,K=1":                         {47, 0, 0, nil, ""},
	"memfs-journal{variant=nofence},exhaustive,K=1":                {8, 0, 0, []Decision{{7, ActCrashVolatile}}, "journal-loss: remounted tree is not the state after the 1 returned ops (or 2):\n"},
	"pstruct{mode=undo,struct=stack},exhaustive,K=1":               {50, 0, 0, nil, ""},
	"pstruct{mode=redo,struct=stack,torn=1},exhaustive,K=1":        {42, 0, 0, nil, ""},
	"pstruct{mode=redo,struct=queue},exhaustive,K=1":               {42, 0, 0, nil, ""},
	"pstruct{mode=undo,struct=queue,torn=1},exhaustive,K=1":        {50, 0, 0, nil, ""},
	"pstruct{mode=redo,struct=stack},exhaustive,K=2":               {202, 0, 0, nil, ""},
	"percpu-queue{drain=safe},exhaustive,K=2":                      {834, 0, 0, nil, ""},
	"percpu-queue{drain=unsafe},exhaustive,K=1":                    {12, 0, 0, []Decision{{11, ActPreempt}}, "lost-update: drained 2 of 4 enqueued requests (payload sum 2, want 4)"},
	"percpu-freelist{variant=ras},exhaustive,K=2":                  {983, 444, 528, nil, ""},
	"percpu-freelist{variant=bare},exhaustive,K=1":                 {6, 5, 0, []Decision{{5, ActPreempt}}, "double-alloc: node 0 stamped by owner 1 while owner 2 still holds it"},
	"percpu-server{variant=percpu},exhaustive,K=1":                 {204, 203, 0, nil, ""},
	"percpu-server{variant=racy},exhaustive,K=1":                   {39, 38, 0, []Decision{{38, ActPreempt}}, "served-exact: served 1 of 2 submitted requests"},
	"percpu-server{cpus=2,iters=1,variant=mutex},exhaustive,K=1":   {4255, 4254, 0, nil, ""},
	"qlock-queue{variant=mcs},exhaustive,K=1":                      {262, 253, 8, nil, ""},
	"qlock-rec{variant=rmcs},exhaustive,K=1":                       {380, 379, 0, nil, ""},
	"qlock-rec{cpus=3,variant=rmcs},exhaustive,K=1":                {650, 649, 0, nil, ""},
	"qlock-rec{variant=mcs},exhaustive,K=1":                        {31, 30, 0, []Decision{{30, ActKill}}, "budget: cpu1: kernel: cycle budget exceeded"},
	"qlock-rec{variant=rmcs-unspliced},exhaustive,K=1":             {171, 170, 0, []Decision{{170, ActKill}}, "budget: cpu0: kernel: cycle budget exceeded"},
	"resilience{kind=volatile,variant=dedup},exhaustive,K=2":       {443, 0, 0, nil, ""},
	"resilience{kind=torn,variant=dedup},exhaustive,K=1":           {27, 0, 0, nil, ""},
	"resilience{kind=volatile,variant=nodedup},exhaustive,K=1":     {10, 0, 0, []Decision{{9, ActCrashVolatile}}, "exactly-once: final audit: effects = 3, want 2 (exactly-once broken)"},
	"broken2store{},random,K=3":                                    {8, 0, 0, []Decision{{8, ActPreempt}}, "counter-exact: counter = 3, want 2 (restart re-applied a committed store)"},
}

// TestSuite walks every canned suite entry exactly once, each as a
// parallel subtest; no other test in the package walks Suite() entries.
// Every entry must match its expectation and its suiteGolden row, and
// every walk must cover its schedule space — a Truncated report means
// the walk silently stopped proving anything. The suite's shape is
// pinned, without walking, by TestSuiteBudgetGuard and
// TestPercpuSuiteEntries.
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
			want, ok := suiteGolden[name]
			if !ok {
				t.Fatalf("no suiteGolden row for this entry")
			}
			r := res.Report
			if r.Schedules != want.schedules || r.States != want.states || r.Pruned != want.pruned {
				t.Errorf("walked %d schedules, %d states, %d pruned; golden %d/%d/%d",
					r.Schedules, r.States, r.Pruned, want.schedules, want.states, want.pruned)
			}
			var cex []Decision
			var vio string
			if r.Counterexample != nil {
				cex = r.Counterexample.Schedule.Decisions
				vio = r.Counterexample.Violations[0].String()
			}
			if !slices.Equal(cex, want.cex) {
				t.Errorf("counterexample %v, golden %v", cex, want.cex)
			}
			if vio != want.vio {
				t.Errorf("first violation %q, golden %q", vio, want.vio)
			}
		})
	}
}

// An entry with an unknown mode or expectation is an error, not a
// silent pass or fail.
func TestRunEntryRejectsUnknown(t *testing.T) {
	for _, ent := range []SuiteEntry{
		{Model: "counter", Mode: "psychic", K: 1, Expect: "pass"},
		{Model: "counter", Mode: "exhaustive", K: 1, Expect: "violaton"},
	} {
		if res := RunEntry(ent, Options{}); res.Err == nil || res.OK {
			t.Errorf("mode %q, expect %q: err %v, ok %v; want an error", ent.Mode, ent.Expect, res.Err, res.OK)
		}
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

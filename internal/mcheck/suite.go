package mcheck

import "fmt"

// The canned verification suite: the checks this layer exists to run,
// with their bounds and their expected outcomes. `rascheck -suite` and
// the acceptance test both execute exactly this list, so "what the model
// checker proves" has one definition.
//
// ExpectViolation entries are deliberate defects (the unprotected TAS,
// the uniprocessor-only RAS on SMP, the two-store sequence): the suite
// FAILS if the checker does NOT catch them, and records the minimized
// counterexample when it does.

// SuiteEntry is one canned check.
type SuiteEntry struct {
	Model  string
	Over   map[string]string // param overrides
	Mode   string            // "exhaustive" or "random"
	K      int               // MaxDecisions
	Seed   uint64            // random mode
	Count  int               // random mode: schedules
	Expect string            // "pass" or "violation"
	Why    string            // one line: what this check proves
}

// SuiteResult is the outcome of one entry.
type SuiteResult struct {
	Entry  SuiteEntry
	Report *Report
	Err    error
	// OK: the outcome matched the expectation.
	OK bool
}

// Suite returns the canned entries. Bounds are chosen so the whole list
// runs in well under a minute.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{
			Model: "counter", Over: map[string]string{"mech": "registered"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "Figure-3 registered RAS: preemption pairs at every instruction",
		},
		{
			Model: "counter", Over: map[string]string{"mech": "designated"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "Figure-5 designated sequence: same walk, recognition not registration",
		},
		{
			Model: "counter", Over: map[string]string{"mech": "none"},
			Mode: "exhaustive", K: 2, Expect: "violation",
			Why: "unprotected TAS control: the checker must catch it",
		},
		{
			Model: "broken2store", Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "two committing stores: restart re-applies the first store",
		},
		{
			Model: "recoverable", Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "owner+epoch lock under a kill at every instruction",
		},
		{
			Model: "smp-counter", Over: map[string]string{"lock": "hybrid"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "paper's hybrid RAS+spinlock at 2 CPUs, K<=2 forced switches",
		},
		{
			Model: "smp-counter", Over: map[string]string{"lock": "llsc"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "ll/sc loop at 2 CPUs: intervening writes fail the sc",
		},
		{
			Model: "smp-counter", Over: map[string]string{"lock": "ras-only"},
			Mode: "exhaustive", K: 2, Expect: "violation",
			Why: "uniprocessor RAS on SMP: no cross-CPU atomicity (paper section 6)",
		},
		{
			Model: "uni-counter", Over: map[string]string{"sync": "ras"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "runtime-layer restartable sequence at every memop boundary",
		},
		{
			Model: "uni-counter", Over: map[string]string{"sync": "none"},
			Mode: "exhaustive", K: 2, Expect: "violation",
			Why: "bare load/store control at the runtime layer",
		},
		{
			Model: "uni-rme", Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "recoverable mutex: a kill at every memop is repaired",
		},
		{
			Model: "persist", Over: map[string]string{"workers": "1", "iters": "2"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "persistent lock+counter: a volatile crash at every flush boundary recovers",
		},
		{
			Model: "persist", Over: map[string]string{"workers": "1", "iters": "3", "variant": "underflush"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "under-flushed variant: a late crash loses more than one increment",
		},
		{
			Model: "journal", Over: map[string]string{"mode": "redo"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "redo-logged guest WAL: a clean crash at every flush/fence boundary recovers",
		},
		{
			Model: "journal", Over: map[string]string{"mode": "redo", "torn": "1"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "redo WAL under torn write-backs: partial lines never validate, recovery still exact",
		},
		{
			Model: "journal", Over: map[string]string{"mode": "undo", "torn": "1"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "undo WAL under torn write-backs: in-flight transactions roll back cleanly",
		},
		{
			Model: "journal", Over: map[string]string{"mode": "redo"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "redo WAL, two crashes: the second lands inside recovery, which must be idempotent",
		},
		{
			Model: "journal", Over: map[string]string{"mode": "nofence", "torn": "1"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "missing-fence WAL: a torn crash splits va/vb with no durable record to repair them",
		},
		{
			Model: "memfs-journal", Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "journaled memfs: a crash at every persist boundary remounts to a script prefix",
		},
		{
			Model: "memfs-journal", Over: map[string]string{"torn": "1"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "journaled memfs under torn write-backs: mount zeroes the torn tail, prefix survives",
		},
		{
			Model: "memfs-journal", Over: map[string]string{"variant": "nofence"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "SkipFence journal: a crash after commit loses a completed operation",
		},
		{
			Model: "pstruct", Over: map[string]string{"struct": "stack", "mode": "undo"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "undo-logged stack: every crash rolls back or completes, never tears",
		},
		{
			Model: "pstruct", Over: map[string]string{"struct": "stack", "mode": "redo", "torn": "1"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "redo-logged stack under torn write-backs",
		},
		{
			Model: "pstruct", Over: map[string]string{"struct": "queue", "mode": "redo"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "redo-logged queue: monotone head/tail recover exactly",
		},
		{
			Model: "pstruct", Over: map[string]string{"struct": "queue", "mode": "undo", "torn": "1"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "undo-logged queue under torn write-backs",
		},
		{
			Model: "pstruct", Over: map[string]string{"struct": "stack", "mode": "redo"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "redo-logged stack, two crashes: the second can land inside Recover",
		},
		{
			Model: "percpu-queue", Over: map[string]string{"drain": "safe"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "per-CPU MPSC queue: restartable batched drain under any two forced preemptions",
		},
		{
			Model: "percpu-queue", Over: map[string]string{"drain": "unsafe"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "planted non-atomic drain: a push between head read and head clear is discarded",
		},
		{
			Model: "percpu-freelist", Over: map[string]string{"variant": "ras"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "registered free-list pop/push: an interrupted pop restarts, ownership stays unique",
		},
		{
			Model: "percpu-freelist", Over: map[string]string{"variant": "bare"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "unregistered pop: a preemption before the commit double-allocates a node",
		},
		{
			Model: "percpu-server", Over: map[string]string{"variant": "percpu"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "per-CPU request ring: the worker waits for slot publication, accounting stays exact",
		},
		{
			Model: "percpu-server", Over: map[string]string{"variant": "racy"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "planted racy drain: a producer preempted before publishing has its slot consumed empty",
		},
		{
			Model: "percpu-server", Over: map[string]string{"variant": "mutex", "cpus": "2", "iters": "1"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "global-lock baseline at 2 CPUs: slower, but exact under forced preemptions",
		},
		{
			Model: "qlock-queue", Over: map[string]string{"variant": "mcs"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "MCS queue lock at 2 CPUs: FIFO handoff and exactness under forced switches",
		},
		{
			Model: "qlock-rec", Over: map[string]string{"variant": "rmcs"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "recoverable MCS: a kill at every scheduler step of a contended queue is repaired",
		},
		{
			Model: "qlock-rec", Over: map[string]string{"variant": "rmcs", "cpus": "3"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "three-party queue: a dead middle waiter is spliced past on every schedule",
		},
		{
			Model: "qlock-rec", Over: map[string]string{"variant": "mcs"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "plain MCS under a kill wedges the queue — why the recoverable variant exists",
		},
		{
			Model: "qlock-rec", Over: map[string]string{"variant": "rmcs-unspliced"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "planted unspliced-successor repair bug: the checker must catch and shrink it",
		},
		{
			Model: "resilience", Over: map[string]string{"variant": "dedup", "kind": "volatile"},
			Mode: "exhaustive", K: 2, Expect: "pass",
			Why: "supervised campaign: two volatile crashes at any global persist ordinals (incl. inside recovery) stay exactly-once",
		},
		{
			Model: "resilience", Over: map[string]string{"variant": "dedup", "kind": "torn"},
			Mode: "exhaustive", K: 1, Expect: "pass",
			Why: "supervised campaign under torn write-backs: applied/counter splits self-heal on replay",
		},
		{
			Model: "resilience", Over: map[string]string{"variant": "nodedup", "kind": "volatile"},
			Mode: "exhaustive", K: 1, Expect: "violation",
			Why: "planted missing-dedup replay: one crash double-applies; shrinks to a single decision",
		},
		{
			Model: "broken2store", Mode: "random", K: 3, Seed: 0xC0FFEE, Count: 200,
			Expect: "violation",
			Why:    "randomized mode finds and shrinks the same defect from a seed",
		},
	}
}

// RunEntry executes one suite entry.
func RunEntry(ent SuiteEntry, opt Options) SuiteResult {
	res := SuiteResult{Entry: ent}
	if ent.Expect != "pass" && ent.Expect != "violation" {
		res.Err = fmt.Errorf("mcheck: suite entry with unknown expectation %q", ent.Expect)
		return res
	}
	m, err := BuildModel(ent.Model, ent.Over)
	if err != nil {
		res.Err = err
		return res
	}
	e := &Explorer{Model: m, Opt: opt, MaxDecisions: ent.K}
	if res.Report, res.Err = e.Run(ent.Mode, ent.Seed, ent.Count); res.Err != nil {
		return res
	}
	if ent.Expect == "pass" {
		res.OK = res.Report.Passed()
	} else {
		res.OK = res.Report.Counterexample != nil
	}
	return res
}

// ReproCommand is the one-line command that re-runs an entry exactly.
func (r SuiteResult) ReproCommand() string {
	ent := r.Entry
	cmd := "rascheck -model " + ent.Model
	if len(ent.Over) > 0 {
		cmd += " -params " + paramString(ent.Over)
	}
	cmd += fmt.Sprintf(" -mode %s -max-decisions %d", ent.Mode, ent.K)
	if ent.Mode == "random" {
		cmd += fmt.Sprintf(" -seed %#x -schedules %d", ent.Seed, ent.Count)
	}
	return cmd
}

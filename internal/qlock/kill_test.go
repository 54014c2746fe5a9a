package qlock

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/vmach/smp"
)

// killAt builds a Faults hook that kills the running thread on one
// CPU at its k-th retired instruction.
func killAt(cpu int, k uint64) func(int) chaos.Injector {
	return func(c int) chaos.Injector {
		if c != cpu {
			return nil
		}
		return chaos.OneShot{Point: chaos.PointStep, N: k, Action: chaos.Action{Kill: true}}
	}
}

// cleanSteps runs cfg without faults and returns each CPU's retired
// step count — the sweep horizon for kill ordinals.
func cleanSteps(t *testing.T, cfg Config) []uint64 {
	t.Helper()
	cfg.Faults = nil
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sys.Run(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if _, err := r.Collect(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	steps := make([]uint64, cfg.CPUs)
	for i, k := range r.Sys.CPUs {
		steps[i] = k.Steps()
	}
	return steps
}

// tolerateDeadInCS accepts the one benign counter/passages mismatch a
// single kill can cause: dying inside the critical section after the
// shared counter increment but before the per-thread completion
// increment charges the counter one passage the dead worker never
// recorded. Exactly +1 with a kill injected is legitimate; anything
// else is a real mutual exclusion violation.
func tolerateDeadInCS(res *Result, err error) error {
	if err == nil || (res != nil && res.Counter == res.Passages+1) {
		return nil
	}
	return err
}

// sweepKills kills each CPU's thread at every retired-instruction
// ordinal up to its clean-run horizon (capped), checking after every
// schedule that mutual exclusion held (counter == completions) and
// every surviving worker completed all its passages. It returns the
// aggregated repair counters across the sweep.
func sweepKills(t *testing.T, base Config, cap uint64) (repairs, splices, fallbacks, scans uint64) {
	t.Helper()
	steps := cleanSteps(t, base)
	for cpu := 0; cpu < base.CPUs; cpu++ {
		horizon := steps[cpu]
		if horizon > cap {
			horizon = cap
		}
		for k := uint64(1); k <= horizon; k++ {
			cfg := base
			cfg.Faults = killAt(cpu, k)
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Sys.Run(); err != nil {
				t.Fatalf("kill cpu%d@%d: run: %v", cpu, k, err)
			}
			res, err := r.Collect()
			if err := tolerateDeadInCS(res, err); err != nil {
				t.Fatalf("kill cpu%d@%d: %v", cpu, k, err)
			}
			for w := 0; w < base.CPUs; w++ {
				if workerExited(r.Sys, w) && res.Mine[w] != uint64(base.Iters) {
					t.Fatalf("kill cpu%d@%d: surviving worker %d completed %d of %d passages",
						cpu, k, w, res.Mine[w], base.Iters)
				}
			}
			repairs += res.Repairs
			splices += res.Splices
			fallbacks += res.Fallback
			scans += res.Scans
		}
	}
	return
}

// TestKillSweepRMCS kills the recoverable MCS lock at every
// instruction of a contended two-CPU run: worker 0 holds its CS until
// worker 1 has enqueued behind it, so every schedule has a real queue
// to repair. The sweep must keep exactness everywhere and must
// exercise all the repair machinery: dead-owner steals (kill the
// holder), dead-waiter splices (kill a linked waiter), the
// mid-swap fallback (kill between the tail swap and the prev
// publication), and the release-side successor scan.
func TestKillSweepRMCS(t *testing.T) {
	base := Config{
		Variant:   RMCS,
		CPUs:      2,
		Iters:     2,
		MaxCycles: 3_000_000,
		Workers:   []WorkerOpt{HoldFor(1), WaitHeld(0)},
	}
	repairs, splices, fallbacks, scans := sweepKills(t, base, 1200)
	if repairs == 0 {
		t.Errorf("sweep never exercised a dead-owner steal (kill the tail holder mid-passage)")
	}
	if splices == 0 {
		t.Errorf("sweep never exercised a dead-waiter splice")
	}
	if fallbacks == 0 {
		t.Errorf("sweep never exercised the mid-swap fallback (kill between xchg and prev publication)")
	}
	if scans == 0 {
		t.Errorf("sweep never exercised the release successor scan (kill before the next pointer is published)")
	}
}

// TestKillWaiterUnpublished is the three-party edge: A holds, D
// queues behind A, W queues behind D — then D dies at every ordinal
// of its life. When D dies before publishing A->next (or even before
// recording its own prev), A's release must find W by scanning and W
// must splice or fall back. Exactness and survivor completion hold at
// every kill point.
func TestKillWaiterUnpublished(t *testing.T) {
	base := Config{
		Variant:   RMCS,
		CPUs:      3,
		Iters:     1,
		MaxCycles: 3_000_000,
		Workers:   []WorkerOpt{HoldFor(2), WaitHeld(0), WaitEnq(1)},
	}
	steps := cleanSteps(t, base)
	var splices, fallbacks, scans uint64
	for k := uint64(1); k <= steps[1]; k++ {
		cfg := base
		cfg.Faults = killAt(1, k)
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Sys.Run(); err != nil {
			t.Fatalf("kill D@%d: run: %v", k, err)
		}
		res, err := r.Collect()
		if err := tolerateDeadInCS(res, err); err != nil {
			t.Fatalf("kill D@%d: %v", k, err)
		}
		for w := 0; w < base.CPUs; w++ {
			if workerExited(r.Sys, w) && res.Mine[w] != 1 {
				t.Fatalf("kill D@%d: surviving worker %d did not complete its passage", k, w)
			}
		}
		splices += res.Splices
		fallbacks += res.Fallback
		scans += res.Scans
	}
	if splices == 0 {
		t.Errorf("sweep never spliced past the dead middle waiter")
	}
	if fallbacks+scans == 0 {
		t.Errorf("sweep never hit the unpublished-successor window (fallback or scan)")
	}
}

// TestCrashRestoreMidHandoff checkpoints a contended recoverable-MCS
// run at many points — including mid-handoff — encodes, decodes and
// restores the snapshot into a fresh system, runs that to completion,
// and requires exactness every time.
func TestCrashRestoreMidHandoff(t *testing.T) {
	base := Config{
		Variant:   RMCS,
		CPUs:      2,
		Iters:     2,
		MaxCycles: 3_000_000,
		Workers:   []WorkerOpt{HoldFor(1), WaitHeld(0)},
	}
	// Walk the run round by round; checkpoint every few rounds.
	r, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	var rounds uint64
	for !r.Sys.StepRound() {
		rounds++
	}
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	for at := uint64(5); at < rounds; at += 7 {
		r2, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < at; i++ {
			if r2.Sys.StepRound() {
				break
			}
		}
		enc := r2.Sys.Capture().Encode()
		snap, err := smp.DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("checkpoint@%d: decode: %v", at, err)
		}
		sys2, err := smp.Restore(smp.Config{MaxCycles: base.MaxCycles}, snap)
		if err != nil {
			t.Fatalf("checkpoint@%d: restore: %v", at, err)
		}
		if err := sys2.Run(); err != nil {
			t.Fatalf("checkpoint@%d: resumed run: %v", at, err)
		}
		r2.Sys = sys2
		res, err := r2.Collect()
		if err != nil {
			t.Fatalf("checkpoint@%d: %v", at, err)
		}
		if want := uint64(base.CPUs * base.Iters); res.Counter != want {
			t.Fatalf("checkpoint@%d: counter %d, want %d", at, res.Counter, want)
		}
	}
}

// TestKillSweepMCSExclusion: even the non-recoverable MCS lock must
// never violate mutual exclusion under kills — a kill may wedge the
// queue (that is what RMCS exists to fix), but the counter must
// always equal the completed passages. Wedged runs end in a budget
// error, which is tolerated here; corrupt counts are not.
func TestKillSweepMCSExclusion(t *testing.T) {
	base := Config{
		Variant:   MCS,
		CPUs:      2,
		Iters:     2,
		MaxCycles: 400_000,
		Workers:   []WorkerOpt{HoldFor(1), WaitHeld(0)},
	}
	steps := cleanSteps(t, base)
	for cpu := 0; cpu < base.CPUs; cpu++ {
		for k := uint64(1); k <= steps[cpu]; k++ {
			cfg := base
			cfg.Faults = killAt(cpu, k)
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runErr := r.Sys.Run() // wedges are expected; violations are not
			res, err := r.Collect()
			if err := tolerateDeadInCS(res, err); err != nil && runErr == nil {
				t.Fatalf("mcs kill cpu%d@%d: %v", cpu, k, err)
			}
			if res != nil && res.Counter > uint64(base.CPUs*base.Iters) {
				t.Fatalf("mcs kill cpu%d@%d: counter %d exceeds total passages", cpu, k, res.Counter)
			}
		}
	}
}

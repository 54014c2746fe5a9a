package qlock

import (
	"sort"
	"testing"

	"repro/internal/vmach/smp"
)

// run builds cfg, runs it to completion and collects the result, which
// verifies the counter against the completed passages.
func run(cfg Config) (*Result, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Sys.Run(); err != nil {
		return nil, err
	}
	return r.Collect()
}

// TestExactness runs every sound variant over CPU counts and both
// coherence modes: the counter must equal the completed passages and
// every worker must finish.
func TestExactness(t *testing.T) {
	for _, v := range Variants() {
		for _, cpus := range []int{1, 2, 4} {
			for _, mode := range []smp.Mode{smp.CC, smp.DSM} {
				res, err := run(Config{Variant: v, CPUs: cpus, Iters: 8, Mode: mode})
				if err != nil {
					t.Fatalf("%s/%dcpu/%s: %v", v, cpus, mode, err)
				}
				want := uint64(cpus * 8)
				if res.Counter != want {
					t.Errorf("%s/%dcpu/%s: counter %d, want %d", v, cpus, mode, res.Counter, want)
				}
				if res.Alive != cpus {
					t.Errorf("%s/%dcpu/%s: %d workers finished, want %d", v, cpus, mode, res.Alive, cpus)
				}
				if res.Lat.Count() != want {
					t.Errorf("%s/%dcpu/%s: %d latency samples, want %d", v, cpus, mode, res.Lat.Count(), want)
				}
			}
		}
	}
}

// TestAuditOrder checks the audit logs on kill-free runs: the CS
// order must be a permutation of the expected passage multiset, and
// the enqueue ticket log must account for every passage too.
func TestAuditOrder(t *testing.T) {
	for _, v := range []Variant{MCS, RMCS} {
		res, err := run(Config{Variant: v, CPUs: 3, Iters: 5, Audit: true})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		want := multiset(3, 5)
		if got := append([]int(nil), res.CSOrder...); !sameMultiset(got, want) {
			t.Errorf("%s: CS order %v is not the expected multiset", v, res.CSOrder)
		}
		if got := append([]int(nil), res.EnqOrder...); !sameMultiset(got, want) {
			t.Errorf("%s: enqueue order %v is not the expected multiset", v, res.EnqOrder)
		}
	}
}

func multiset(cpus, iters int) []int {
	var out []int
	for c := 0; c < cpus; c++ {
		for i := 0; i < iters; i++ {
			out = append(out, smp.GlobalID(c, 0))
		}
	}
	return out
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRMRShape is the headline property at test scale: MCS stays
// O(1) RMRs per passage in CC mode while the spinlock grows with CPU
// count.
func TestRMRShape(t *testing.T) {
	perPassage := func(v Variant, cpus int) float64 {
		res, err := run(Config{Variant: v, CPUs: cpus, Iters: 20})
		if err != nil {
			t.Fatalf("%s/%d: %v", v, cpus, err)
		}
		return float64(res.RMRs) / float64(res.Passages)
	}
	mcs2, mcs8 := perPassage(MCS, 2), perPassage(MCS, 8)
	spin2, spin8 := perPassage(Spin, 2), perPassage(Spin, 8)
	if mcs8 > 3*mcs2+8 {
		t.Errorf("MCS RMR/passage grew with contention: %d cpus %.1f vs 2 cpus %.1f", 8, mcs8, mcs2)
	}
	if spin8 < 2*spin2 {
		t.Errorf("spinlock RMR/passage did not grow: 8 cpus %.1f vs 2 cpus %.1f", spin8, spin2)
	}
	if spin8 < 1.5*mcs8 {
		t.Errorf("spinlock (%.1f) should dominate MCS (%.1f) at 8 cpus", spin8, mcs8)
	}
}

// TestTryAcquire: a TryAcquire worker contending against a holder
// that stretches its critical section gives up (bounded spin, tail
// self-dequeue) without disturbing the counter, and the lock stays
// functional.
func TestTryAcquire(t *testing.T) {
	// Worker 0 holds its CS until worker 1 gives up; worker 1 tries
	// with a small budget, must abort (tail self-dequeue), and worker
	// 0's release must cope with its stale next link.
	res, err := run(Config{
		Variant:  RMCS,
		CPUs:     2,
		Iters:    1,
		TryBound: 40,
		Workers:  []WorkerOpt{HoldAbort(1), WaitHeld(0)},
	})
	if err != nil {
		t.Fatalf("try: %v", err)
	}
	if res.Counter != res.Passages {
		t.Fatalf("try: counter %d vs passages %d", res.Counter, res.Passages)
	}
	if res.Aborts == 0 {
		t.Errorf("try: expected at least one TryAcquire abort, got none (counter %d)", res.Counter)
	}
	if res.Alive != 2 {
		t.Errorf("try: %d workers finished, want 2", res.Alive)
	}
}

// TestTryAcquireUncontended: with no contention TryAcquire always
// succeeds.
func TestTryAcquireUncontended(t *testing.T) {
	res, err := run(Config{Variant: RMCS, CPUs: 1, Iters: 6, TryBound: 50})
	if err != nil {
		t.Fatalf("try uncontended: %v", err)
	}
	if res.Counter != 6 || res.Aborts != 0 {
		t.Errorf("try uncontended: counter %d aborts %d, want 6/0", res.Counter, res.Aborts)
	}
}

// HoldAbort stretches the critical section until peer aborts a
// TryAcquire, completes a passage, or dies.
func HoldAbort(peer int) WorkerOpt { w := NoPeer; w.HoldAbortPeer = peer; return w }

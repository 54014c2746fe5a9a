package kernel

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
)

// rmeHarness wires the recoverable-counter guest program into a kernel and
// watches the lock and counter words, validating every committed store
// against the recoverable-mutual-exclusion invariants:
//
//   - only the lock owner increments the counter;
//   - a free lock is taken by the storing thread itself, epoch unchanged;
//   - a held lock is released only by its owner, epoch unchanged;
//   - a held lock changes hands only by a steal: the previous owner is
//     dead and the epoch is bumped by exactly one.
type rmeHarness struct {
	k          *Kernel
	lockAddr   uint32
	violations []string
	increments uint64
	steals     uint64
}

func (h *rmeHarness) violate(format string, args ...any) {
	if len(h.violations) < 16 {
		h.violations = append(h.violations, fmt.Sprintf(format, args...))
	}
}

func newRMEHarness(t testing.TB, cfg Config, workers, iters int) *rmeHarness {
	t.Helper()
	prog := guest.Assemble(guest.RecoverableCounterProgram(workers, iters))
	k := New(cfg)
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))

	h := &rmeHarness{k: k, lockAddr: prog.MustSymbol("lock")}
	storer := func() int {
		if cur := k.Current(); cur != nil {
			return cur.ID
		}
		return -1
	}
	dead := func(tid int) bool {
		if tid < 0 || tid >= len(k.Threads()) {
			return true
		}
		switch k.Threads()[tid].State {
		case StateDone, StateFaulted, StateKilled:
			return true
		}
		return false
	}
	k.M.Mem.Watch(h.lockAddr, func(old, new isa.Word) {
		me := storer()
		oldOwner, newOwner := int(old&0xFFFF), int(new&0xFFFF)
		oldEpoch, newEpoch := old>>16, new>>16
		switch {
		case oldOwner == 0 && newOwner != 0: // plain acquire
			if newOwner != me+1 {
				h.violate("t%d acquired the lock for owner %d", me, newOwner)
			}
			if newEpoch != oldEpoch {
				h.violate("plain acquire changed epoch %d->%d", oldEpoch, newEpoch)
			}
		case oldOwner != 0 && newOwner == 0: // release
			if oldOwner != me+1 {
				h.violate("t%d released a lock owned by %d", me, oldOwner-1)
			}
			if newEpoch != oldEpoch {
				h.violate("release changed epoch %d->%d", oldEpoch, newEpoch)
			}
		case oldOwner != 0 && newOwner != 0: // steal
			h.steals++
			if newOwner != me+1 {
				h.violate("t%d stole the lock for owner %d", me, newOwner)
			}
			if !dead(oldOwner - 1) {
				h.violate("t%d stole the lock from live thread %d — mutual exclusion breach", me, oldOwner-1)
			}
			if newEpoch != oldEpoch+1 {
				h.violate("steal moved epoch %d->%d, want +1", oldEpoch, newEpoch)
			}
		}
	})
	k.M.Mem.Watch(prog.MustSymbol("counter"), func(old, new isa.Word) {
		h.increments++
		if new != old+1 {
			h.violate("counter stepped %d->%d", old, new)
		}
		lock := k.M.Mem.Peek(h.lockAddr)
		if me := storer(); int(lock&0xFFFF) != me+1 {
			h.violate("t%d incremented the counter while the lock word is %#x", me, lock)
		}
	})
	return h
}

// check asserts the run upheld the invariants and every thread terminated.
func (h *rmeHarness) check(t testing.TB, runErr error) {
	t.Helper()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	for _, v := range h.violations {
		t.Errorf("RME violation: %s", v)
	}
	for _, th := range h.k.Threads() {
		switch th.State {
		case StateDone, StateKilled:
		default:
			t.Errorf("thread %d finished in state %v — stuck acquirer", th.ID, th.State)
		}
	}
	if got := uint64(h.k.M.Mem.Peek(h.lockAddr + 4)); got != h.increments {
		t.Errorf("final counter %d but %d watched increments", got, h.increments)
	}
}

// Fault-free: the recoverable lock is an ordinary mutex and the counter is
// exact, under both recovery strategies.
func TestRecoverableCounterNoFaults(t *testing.T) {
	for _, strat := range []Strategy{&Registration{}, &Designated{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			h := newRMEHarness(t, Config{Strategy: strat, Quantum: 300}, 3, 40)
			h.check(t, h.k.Run())
			if got := h.k.M.Mem.Peek(h.lockAddr + 4); got != 120 {
				t.Errorf("counter = %d, want 120", got)
			}
			if h.steals != 0 {
				t.Errorf("%d steals in a fault-free run", h.steals)
			}
		})
	}
}

// A thread killed while holding the lock orphans it; a surviving worker
// detects the dead owner through SysThreadAlive and repairs by stealing
// with the epoch bumped.
func TestRecoverableCounterRepairsOrphan(t *testing.T) {
	// Find a step at which the lock is held, by probing a fault-free run.
	probe := newRMEHarness(t, Config{Strategy: &Registration{}, Quantum: 300}, 3, 40)
	heldAt := uint64(0)
	for {
		fin, err := probe.k.RunSteps(1)
		if err != nil {
			t.Fatal(err)
		}
		if fin {
			break
		}
		if cur := probe.k.Current(); cur != nil && cur.ID != 0 &&
			probe.k.M.Mem.Peek(probe.lockAddr)&0xFFFF == isa.Word(cur.ID+1) {
			heldAt = probe.k.Steps() + 2
			break
		}
	}
	if heldAt == 0 {
		t.Fatal("probe never observed a held lock")
	}

	h := newRMEHarness(t, Config{
		Strategy: &Registration{},
		Quantum:  300,
		Faults:   chaos.OneShot{Point: chaos.PointStep, N: heldAt, Action: chaos.Action{Kill: true}},
	}, 3, 40)
	h.check(t, h.k.Run())
	if h.k.Stats.Kills != 1 {
		t.Fatalf("Kills = %d, want 1", h.k.Stats.Kills)
	}
	if h.steals == 0 {
		t.Error("orphaned lock was never stolen")
	}
	if reps := h.k.M.Mem.Peek(h.lockAddr + 8); uint64(reps) != h.steals {
		t.Errorf("guest counted %d repairs, harness saw %d steals", reps, h.steals)
	}
	if epoch := h.k.M.Mem.Peek(h.lockAddr) >> 16; uint64(epoch) != h.steals {
		t.Errorf("final epoch %d, want %d (one bump per steal)", epoch, h.steals)
	}
}

// The seeded kill sweep: many schedules, each killing 1-3 threads at
// derived steps, on both recovery strategies. Every schedule must uphold
// mutual exclusion and leave no stuck acquirers.
func TestRecoverableCounterKillSweep(t *testing.T) {
	const seed = 0x564D4B53 // "VMKS"
	const schedules = 150
	cfg := func(strat Strategy, faults chaos.Injector) Config {
		return Config{Strategy: strat, Quantum: 250, Faults: faults}
	}
	for _, strat := range []Strategy{&Registration{}, &Designated{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			// Reference run to learn the schedule span, with a plan that
			// injects nothing but keeps the step cursor counting.
			ref := newRMEHarness(t, cfg(strat, chaos.NewKillPlan(seed, 0)), 3, 30)
			ref.check(t, ref.k.Run())
			span := ref.k.Steps()
			if span == 0 {
				t.Fatal("reference run retired no steps")
			}

			var kills, steals uint64
			for s := 0; s < schedules; s++ {
				n := 1 + int(chaos.Derive(seed, uint64(s))%3)
				var shots []chaos.Injector
				for i := 0; i < n; i++ {
					at := chaos.DeriveOrdinal(span, seed, uint64(s), uint64(i))
					shots = append(shots, chaos.OneShot{
						Point: chaos.PointStep, N: at, Action: chaos.Action{Kill: true},
					})
				}
				h := newRMEHarness(t, cfg(strat, chaos.Compose(shots...)), 3, 30)
				err := h.k.Run()
				h.check(t, err)
				if t.Failed() {
					t.Fatalf("schedule %d (seed %#x) violated RME", s, seed)
				}
				kills += h.k.Stats.Kills
				steals += h.steals
			}
			if kills == 0 {
				t.Error("sweep injected no kills — span estimate broken")
			}
			if steals == 0 {
				t.Error("sweep produced no orphan repairs")
			}
			t.Logf("%d schedules: %d kills, %d steals", schedules, kills, steals)
		})
	}
}

// A kill sweep is deterministic: the same seed replays to identical stats.
func TestRecoverableCounterSweepDeterministic(t *testing.T) {
	run := func() (Stats, vmach.Stats, uint64) {
		shots := chaos.Compose(
			chaos.OneShot{Point: chaos.PointStep, N: 900, Action: chaos.Action{Kill: true}},
			chaos.OneShot{Point: chaos.PointStep, N: 2500, Action: chaos.Action{Kill: true}},
		)
		h := newRMEHarness(t, Config{Strategy: &Registration{}, Quantum: 250, Faults: shots}, 3, 30)
		h.check(t, h.k.Run())
		return h.k.Stats, h.k.M.Stats, h.steals
	}
	k1, m1, s1 := run()
	k2, m2, s2 := run()
	if k1 != k2 || m1 != m2 || s1 != s2 {
		t.Errorf("two identical runs diverged:\n %+v %+v %d\n %+v %+v %d", k1, m1, s1, k2, m2, s2)
	}
}

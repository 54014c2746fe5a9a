package core

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/uniproc"
)

// persistentWorkload is the crash-consistent counter: acquire (P1 inside
// the mutex), increment, persist the counter (P2 — the caller's half of
// the protocol), release (P3 inside the mutex). committed counts every
// increment that executed, in harness memory the crash cannot revert.
func persistentWorkload(mu *PersistentMutex, counter *Word, iters int, committed *int) func(*uniproc.Env) {
	return func(e *uniproc.Env) {
		for i := 0; i < iters; i++ {
			mu.Acquire(e)
			v := e.Load(counter)
			e.Store(counter, v+1)
			*committed++
			e.Flush(counter) // P2
			e.Fence()
			mu.Release(e)
		}
	}
}

// The persistent recoverable mutex, end to end: run until an injected
// volatile crash, verify the bounded-durability-loss invariant on what
// survived, then recover on a FRESH processor from word contents alone
// and complete a full workload on top.
func TestPersistentMutexCrashRecovery(t *testing.T) {
	const workers, iters = 2, 4

	// Calibrate: a fault-free run bounds the meaningful crash ordinals.
	calMu, calCounter, calN := NewPersistentMutex(), Word(0), 0
	cal := uniproc.New(uniproc.Config{})
	cal.EnablePersistence()
	cal.Go("main", func(e *uniproc.Env) {
		for w := 0; w < workers; w++ {
			e.Fork("worker", persistentWorkload(calMu, &calCounter, iters, &calN))
		}
	})
	if err := cal.Run(); err != nil {
		t.Fatal(err)
	}
	total := cal.MemOps()
	if calCounter != workers*iters {
		t.Fatalf("calibration counter = %d, want %d", calCounter, workers*iters)
	}

	for _, crashAt := range []uint64{total / 7, total / 3, total / 2, total - 2} {
		if crashAt == 0 {
			crashAt = 1
		}
		mu := NewPersistentMutex()
		var counter Word
		committed := 0

		// Boot 1: crash with the volatile tier discarded at the fault.
		p1 := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
			Point: chaos.PointMemOp, N: crashAt,
			Action: chaos.Action{Crash: chaos.CrashVolatile},
		}})
		p1.EnablePersistence()
		p1.Go("main", func(e *uniproc.Env) {
			for w := 0; w < workers; w++ {
				e.Fork("worker", persistentWorkload(mu, &counter, iters, &committed))
			}
		})
		if err := p1.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
			t.Fatalf("crash@%d: Run = %v, want ErrMachineCrash", crashAt, err)
		}
		// What the words hold now is NVM contents only.
		c0 := counter
		if int(c0) < committed-1 {
			t.Errorf("crash@%d: NVM counter %d but %d increments committed; protocol lost more than one",
				crashAt, c0, committed)
		}

		// Boot 2: fresh processor, same words. Recover before any worker.
		p2 := uniproc.New(uniproc.Config{})
		p2.EnablePersistence()
		p2.Go("main", func(e *uniproc.Env) {
			mu.Recover(e)
			for w := 0; w < workers; w++ {
				e.Fork("worker", persistentWorkload(mu, &counter, iters, &committed))
			}
		})
		if err := p2.Run(); err != nil {
			t.Fatalf("crash@%d: reboot run: %v", crashAt, err)
		}
		if want := c0 + workers*iters; counter != want {
			t.Errorf("crash@%d: counter after reboot = %d, want %d (%d survived + %d new)",
				crashAt, counter, want, c0, workers*iters)
		}
		if own := rmOwner(mu.Word()); own >= 0 {
			t.Errorf("crash@%d: lock still owned by %d after clean reboot", crashAt, own)
		}
	}
}

// The recovery path itself under crashes: every persist ordinal of the
// prelude workload is crashed into, and for each surviving NVM image
// that still names an owner, the repair is crashed at EVERY memop and
// persist ordinal it executes — then crashed AGAIN at every ordinal of
// the re-run repair (recovery of the recovery). However many times the
// machine restarts mid-repair, the bounded-durability-loss invariant
// nvm_counter >= committed-1 holds at each crash, and the final clean
// recovery plus a full workload lands on the exact counter.
func TestPersistentMutexRecoverySweep(t *testing.T) {
	const workers, iters = 2, 3

	type state struct {
		mu        *PersistentMutex
		counter   Word
		committed int
	}
	checkBound := func(t *testing.T, st *state, where string) {
		t.Helper()
		if int(st.counter) < st.committed-1 {
			t.Errorf("%s: NVM counter %d but %d increments committed; protocol lost more than one",
				where, st.counter, st.committed)
		}
	}

	// prelude boots a machine and crashes it (volatile tier discarded) at
	// the n-th persist op of the workload; nil error means n was past the
	// last persist op and the run completed.
	prelude := func(n uint64) (*state, error) {
		st := &state{mu: NewPersistentMutex()}
		p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
			Point: chaos.PointPersist, N: n,
			Action: chaos.Action{Crash: chaos.CrashVolatile},
		}})
		p.EnablePersistence()
		p.Go("main", func(e *uniproc.Env) {
			for w := 0; w < workers; w++ {
				e.Fork("worker", persistentWorkload(st.mu, &st.counter, iters, &st.committed))
			}
		})
		return st, p.Run()
	}

	// recBoot runs Recover alone on a fresh processor over st's words.
	recBoot := func(st *state, inj chaos.Injector) (err error, mem, per uint64) {
		p := uniproc.New(uniproc.Config{Faults: inj})
		p.EnablePersistence()
		p.Go("recover", func(e *uniproc.Env) { st.mu.Recover(e) })
		err = p.Run()
		return err, p.MemOps(), p.PersistOps()
	}

	// Sweep the prelude's persist ordinals; keep the crash points whose
	// NVM image leaves the lock owned — those are the images whose repair
	// path the inner sweeps exercise.
	var owned []uint64
	for n := uint64(1); ; n++ {
		st, err := prelude(n)
		if err == nil {
			break // past the last persist op
		}
		if !errors.Is(err, uniproc.ErrMachineCrash) {
			t.Fatal(err)
		}
		checkBound(t, st, "prelude")
		if rmOwner(st.mu.Word()) >= 0 {
			owned = append(owned, n)
		}
	}
	if len(owned) == 0 {
		t.Fatal("no prelude crash point leaves the lock owned — the sweep proves nothing")
	}
	// Thin to at most four spread points to bound the cubic sweep.
	if len(owned) > 4 {
		owned = []uint64{owned[0], owned[len(owned)/3], owned[2*len(owned)/3], owned[len(owned)-1]}
	}

	for _, n := range owned {
		for _, pt := range []chaos.Point{chaos.PointMemOp, chaos.PointPersist} {
			// Calibrate the repair's ordinal space on a throwaway image.
			cal, _ := prelude(n)
			cerr, mem, per := recBoot(cal, nil)
			if cerr != nil {
				t.Fatal(cerr)
			}
			bound := mem
			if pt == chaos.PointPersist {
				bound = per
			}
			if bound == 0 {
				t.Fatalf("prelude@%d: repair performed no ops at point %v", n, pt)
			}
			for i := uint64(1); i <= bound; i++ {
				// j==0 is "no second crash"; j>0 crashes the re-run repair
				// too (it may be shorter than the first — a OneShot past
				// its end simply never fires, which is the clean case).
				for j := uint64(0); j <= bound; j++ {
					st, err := prelude(n)
					if !errors.Is(err, uniproc.ErrMachineCrash) {
						t.Fatal(err)
					}
					err, _, _ = recBoot(st, chaos.OneShot{
						Point: pt, N: i, Action: chaos.Action{Crash: chaos.CrashVolatile},
					})
					if !errors.Is(err, uniproc.ErrMachineCrash) {
						t.Fatalf("prelude@%d %v@%d: recovery did not crash: %v", n, pt, i, err)
					}
					checkBound(t, st, "mid-repair")
					if j > 0 {
						err, _, _ = recBoot(st, chaos.OneShot{
							Point: pt, N: j, Action: chaos.Action{Crash: chaos.CrashVolatile},
						})
						if err != nil && !errors.Is(err, uniproc.ErrMachineCrash) {
							t.Fatal(err)
						}
						checkBound(t, st, "mid-re-repair")
					}
					// Final clean recovery, then a full workload on top:
					// the repairs must not have eaten an increment or left
					// a phantom owner.
					c0 := st.counter
					p := uniproc.New(uniproc.Config{})
					p.EnablePersistence()
					p.Go("main", func(e *uniproc.Env) {
						st.mu.Recover(e)
						for w := 0; w < workers; w++ {
							e.Fork("worker", persistentWorkload(st.mu, &st.counter, iters, &st.committed))
						}
					})
					if err := p.Run(); err != nil {
						t.Fatalf("prelude@%d %v i=%d j=%d: final boot: %v", n, pt, i, j, err)
					}
					if want := c0 + workers*iters; st.counter != want {
						t.Errorf("prelude@%d %v i=%d j=%d: counter = %d, want %d",
							n, pt, i, j, st.counter, want)
					}
					if own := rmOwner(st.mu.Word()); own >= 0 {
						t.Errorf("prelude@%d %v i=%d j=%d: lock still owned by %d", n, pt, i, j, own)
					}
				}
			}
		}
	}
}

// Recover is a no-op on a free lock, and repairs an owned one with the
// epoch bumped and the repaired word made durable before it returns.
func TestRecoverRepairsFromNVMAlone(t *testing.T) {
	mu := NewPersistentMutex()
	mu.word = 3<<rmEpochShift | 2 // epoch 3, owner thread 1: a crashed run's corpse
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		if !mu.Recover(e) {
			t.Error("Recover found nothing to repair")
		}
		if mu.Recover(e) {
			t.Error("second Recover repaired a free lock")
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if own, ep := rmOwner(mu.Word()), rmEpoch(mu.Word()); own >= 0 || ep != 4 {
		t.Fatalf("repaired word: owner=%d epoch=%d, want free/4", own, ep)
	}
	if got := p.NVPeek(&mu.word); got != mu.word {
		t.Fatal("repair is not durable: NVM tier disagrees with the repaired word")
	}
	if p.Stats.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", p.Stats.Repairs)
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/uniproc"
)

// A RAS test-and-set needs 4 cycles (load, ALU, committing store) on the
// R3000 profile: a 2-cycle quantum livelocks every attempt, so the
// degrading wrapper must notice and demote to kernel emulation — after
// which the same workload completes with an exact counter.
func TestDegradingDemotesUnderLivelock(t *testing.T) {
	prof := arch.R3000()
	d := NewDegrading(NewRAS(), NewKernelEmul(prof))
	got, proc := counterRun(t, prof, d, 2, 2, 50)
	if got != 2*50 {
		t.Errorf("counter %d want %d", got, 2*50)
	}
	if !d.Demoted() {
		t.Error("wrapper did not demote under a livelocking quantum")
	}
	if proc.Stats.Demotions != 1 {
		t.Errorf("Demotions = %d, want 1 (demotion is permanent, counted once)", proc.Stats.Demotions)
	}
	if proc.Stats.EmulTraps == 0 {
		t.Error("no emulation traps after demotion")
	}
}

// With a realistic quantum the fast path stays healthy: no demotion, no
// emulation traps, and the counter is exact.
func TestDegradingStaysFastWhenHealthy(t *testing.T) {
	prof := arch.R3000()
	d := NewDegrading(NewRAS(), NewKernelEmul(prof))
	got, proc := counterRun(t, prof, d, 50000, 4, 200)
	if got != 4*200 {
		t.Errorf("counter %d want %d", got, 4*200)
	}
	if d.Demoted() {
		t.Error("healthy fast path was demoted")
	}
	if proc.Stats.EmulTraps != 0 {
		t.Errorf("EmulTraps = %d on the fast path", proc.Stats.EmulTraps)
	}
	if proc.Stats.Demotions != 0 {
		t.Errorf("Demotions = %d", proc.Stats.Demotions)
	}
}

// The windowed restart-rate monitor: a 12-cycle quantum fits the 4-cycle
// sequence, so an interrupted attempt restarts at the head of a fresh
// slice and completes, and no single operation can reach opRestartLimit;
// but it preempts the test-and-set often enough that the restarts per
// operation over a window reach rateNum/rateDen, which must demote.
func TestDegradingRateMonitorDemotes(t *testing.T) {
	prof := arch.R3000()
	d := NewDegrading(NewRAS(), NewKernelEmul(prof))
	got, proc := counterRun(t, prof, d, 12, 4, 300)
	if got != 4*300 {
		t.Errorf("counter %d want %d", got, 4*300)
	}
	if !d.Demoted() {
		t.Error("rate monitor never demoted despite restarts under a 12-cycle quantum")
	}
	if proc.Stats.Demotions != 1 {
		t.Errorf("Demotions = %d", proc.Stats.Demotions)
	}
}

// FetchAndAdd degrades too, and stays numerically exact across the switch.
func TestDegradingFetchAndAdd(t *testing.T) {
	prof := arch.R3000()
	d := NewDegrading(NewRAS(), NewKernelEmul(prof))
	proc := uniproc.New(uniproc.Config{Profile: prof, Quantum: 2})
	var w Word
	const n, iters = 3, 40
	for i := 0; i < n; i++ {
		proc.Go("adder", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				d.FetchAndAdd(e, &w, 1)
			}
		})
	}
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	if w != n*iters {
		t.Errorf("sum %d want %d", w, n*iters)
	}
	if !d.Demoted() {
		t.Error("FetchAndAdd did not demote under a livelocking quantum")
	}
}

// Try variants abandon without visible writes and report the truth.
func TestRASTryVariants(t *testing.T) {
	prof := arch.R3000()
	proc := uniproc.New(uniproc.Config{Profile: prof, Quantum: 2})
	r := NewRAS()
	var w Word
	var tasOK, faaOK bool
	proc.Go("main", func(e *uniproc.Env) {
		_, tasOK = r.TryTestAndSet(e, &w, 3)
		_, faaOK = r.TryFetchAndAdd(e, &w, 5, 3)
	})
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	if tasOK || faaOK {
		t.Errorf("try variants succeeded under a livelocking quantum: tas=%v faa=%v", tasOK, faaOK)
	}
	if w != 0 {
		t.Errorf("abandoned attempts left a visible write: %d", w)
	}
}

func TestDegradingName(t *testing.T) {
	d := NewDegrading(NewRAS(), NewKernelEmul(arch.R3000()))
	want := "degrading(ras-inline->emulation)"
	if d.Name() != want {
		t.Errorf("Name() = %q want %q", d.Name(), want)
	}
	if !strings.Contains(d.Name(), "->") {
		t.Error("name does not show the degradation direction")
	}
}

// gateInjector preempts at every memop while hostile — enough to livelock
// any restartable sequence — and is harmless otherwise. The test flips the
// gate between phases; single-baton scheduling makes that safe.
type gateInjector struct{ hostile bool }

func (g *gateInjector) At(pt chaos.Point, _ uint64) chaos.Action {
	if g.hostile && pt == chaos.PointMemOp {
		return chaos.Action{Preempt: true}
	}
	return chaos.Action{}
}

// Next gives no hint: the gate can open at any ordinal.
func (g *gateInjector) Next(_ chaos.Point, n uint64) uint64 { return n }

// Demotion is permanent: once a hostile spell demotes the mechanism, a
// hundred quiet operations afterwards stay on the fallback, and the
// transition is counted once.
func TestDegradingPermanentByDefault(t *testing.T) {
	gate := &gateInjector{hostile: true}
	proc := uniproc.New(uniproc.Config{Faults: gate})
	d := NewDegrading(NewRAS(), NewKernelEmul(arch.R3000()))
	var w Word
	proc.Go("main", func(e *uniproc.Env) {
		d.TestAndSet(e, &w)
		if !d.Demoted() {
			t.Error("not demoted under hostile injection")
		}
		gate.hostile = false
		for i := 0; i < 100; i++ {
			w = 0
			d.TestAndSet(e, &w)
		}
	})
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	if !d.Demoted() || proc.Stats.Demotions != 1 {
		t.Errorf("demoted=%v demotions=%d, want a single permanent demotion", d.Demoted(), proc.Stats.Demotions)
	}
}

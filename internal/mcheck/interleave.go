package mcheck

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/chaos"
	"repro/internal/vmach/smp"
)

// interleaver is the whole-CPU scheduler every SMP model shares, and the
// instance those models build: the decision ordinal space counts
// scheduler steps across all CPUs, the CPU holding the interleaving
// keeps stepping for up to turnMax steps before the interleaving rotates
// on its own, and an ActSwitch decision rotates it at its ordinal. kill,
// when set, applies ActKill decisions to the CPU holding the
// interleaving; without it they are no-ops here (the kernel-preempt
// models render theirs through the chaos injector).
//
// The CPU holding the interleaving runs in batches (smp.System.StepCPU
// with n > 1): nothing but that CPU moves until the turn ends, the next
// decision's ordinal comes up or the caller's pause target is reached,
// so a batch capped at the nearest of the three passes through exactly
// the states single steps would, and rotation, ActSwitch and ActKill
// apply at the same global ordinal.
type interleaver struct {
	sys     *smp.System
	vio     violations
	ds      []Decision // sorted by At; next is ds[di]
	di      int
	cur     int    // CPU holding the interleaving
	steps   uint64 // global step ordinal: scheduler steps across CPUs
	turn    uint64 // steps since the interleaving last moved
	turnMax uint64
	kill    func(cpu int)
	finish  func() // the model's end-state invariants
	done    bool
	ended   bool
	// single caps every batch at one step: the grain batching must be
	// indistinguishable from. Only equivalence tests set it.
	single bool
}

// next is the first unfinished CPU after cur, or cur when every CPU is
// done.
func (il *interleaver) next() int {
	n := len(il.sys.CPUs)
	for j := 1; j <= n; j++ {
		if c := (il.cur + j) % n; !il.sys.Done(c) {
			return c
		}
	}
	return il.cur
}

// rotate hands the interleaving to the next unfinished CPU.
func (il *interleaver) rotate() {
	il.cur = il.next()
	il.turn = 0
}

// step runs one batch of the CPU holding the interleaving, stopping at
// the global ordinal at at the latest.
func (il *interleaver) step(at uint64) {
	if il.sys.AllDone() {
		il.done = true
		return
	}
	if il.sys.Done(il.cur) || il.turn >= il.turnMax {
		il.rotate()
	}
	n := min(at-il.steps, il.turnMax-il.turn)
	if il.di < len(il.ds) && il.ds[il.di].At > il.steps {
		n = min(n, il.ds[il.di].At-il.steps)
	}
	if il.single {
		n = 1
	}
	ran, cpuDone := il.sys.StepCPU(il.cur, n)
	il.steps += ran
	il.turn += ran
	for il.di < len(il.ds) && il.ds[il.di].At == il.steps {
		switch il.ds[il.di].Act {
		case ActSwitch:
			il.rotate()
		case ActKill:
			if il.kill != nil {
				il.kill(il.cur)
			}
		}
		il.di++
	}
	if cpuDone && il.sys.AllDone() {
		il.done = true
	}
}

func (il *interleaver) RunTo(at uint64) bool {
	for !il.done && il.steps < at {
		il.step(at)
	}
	return il.done
}

// RunToEnd drives the run to completion and, the first time only,
// records each CPU's verdict and applies the model's end-state
// invariants.
func (il *interleaver) RunToEnd() {
	for !il.done {
		il.step(chaos.Never)
	}
	if il.ended {
		return
	}
	il.ended = true
	for c := range il.sys.CPUs {
		il.vio.terminal(il.sys.CPUVerdict(c), c)
	}
	il.finish()
}

func (il *interleaver) Cursor() uint64          { return il.steps }
func (il *interleaver) Violations() []Violation { return il.vio.list }
func (il *interleaver) StateHash() ([32]byte, bool) {
	return hashSMP(il.sys, il.cur, il.turn), true
}

// Walking a prefix once. Exhaustive builds every child schedule from
// scratch and replays its whole prefix, yet most children are pruned
// after one state hash. For a child whose last decision is an ActSwitch
// the replay is redundant: up to that ordinal the child runs exactly
// the steps of its prefix, and the switch itself moves only the
// interleaver's (cur, turn), never the substrate. So the child's paused
// state is the prefix run's state at the ordinal with the interleaving
// rotated: one walker per prefix, advanced across its children in
// ascending ordinal order, answers every child's hash.
//
// switchWalkers keeps one such walker per prefix length and hands out
// lazy instances (switchChild) that pause on it. A walker is rebuilt
// from scratch whenever the requested prefix differs or the walker has
// passed the ordinal, so any call order stays correct; only the DFS
// order is fast. (A walker whose run ended short of the ordinal is not
// rebuilt: a fresh one would end there too, and the child replays.)
// Kernel-preempt models cannot use this: their decisions change
// substrate state.
type switchWalkers struct {
	build func(ds []Decision, opt Options) (*interleaver, error)

	mu    sync.Mutex
	depth []*interleaver // depth[d] walks some prefix of d decisions
}

// New is the Model.New of a switch-primary SMP model: a schedule ending
// in an ActSwitch, built without a tracer, becomes a lazy instance that
// does no substrate work until used; everything else is built in full.
func (w *switchWalkers) New(ds []Decision, opt Options) (Instance, error) {
	if opt.Tracer != nil || len(ds) == 0 || ds[len(ds)-1].Act != ActSwitch {
		in, err := w.build(ds, opt)
		if err != nil {
			return nil, err // not a nil *interleaver in a non-nil Instance
		}
		return in, nil
	}
	return &switchChild{walkers: w, ds: ds}, nil
}

// pause advances the walker of ds's prefix to ordinal at and returns
// it. It returns nil when ds's last decision would not fire there as a
// plain rotation: at is not that decision's ordinal, the prefix run
// ends first, or the prefix still holds unfired decisions (an unsorted
// list). w.mu must be held.
func (w *switchWalkers) pause(ds []Decision, at uint64) *interleaver {
	if at == 0 || at != ds[len(ds)-1].At {
		return nil
	}
	prefix := ds[:len(ds)-1]
	for len(w.depth) <= len(prefix) {
		w.depth = append(w.depth, nil)
	}
	il := w.depth[len(prefix)]
	if il == nil || il.steps > at || !slices.Equal(il.ds, prefix) {
		var err error
		if il, err = w.build(slices.Clone(prefix), Options{}); err != nil {
			return nil
		}
		w.depth[len(prefix)] = il
	}
	il.RunTo(at)
	if il.steps != at || il.di != len(il.ds) {
		return nil
	}
	return il
}

// switchChild is a lazy instance for a schedule ending in an ActSwitch.
// Its RunTo to that switch's ordinal only pauses a shared walker; its
// StateHash, Violations and Cursor then read the walker while it still
// sits at the pause (the step tag: its ordinal is unchanged). Any other
// use — RunToEnd, RunTo elsewhere, or a read after another child moved
// the walker on — materializes the instance by replaying from scratch.
type switchChild struct {
	walkers *switchWalkers
	ds      []Decision
	walker  *interleaver // paused at ordinal at; nil before RunTo
	at      uint64
	full    Instance // the from-scratch instance, once materialized
}

// paused runs f on the walker while it still sits at this child's
// pause, and reports whether it did.
func (c *switchChild) paused(f func(il *interleaver)) bool {
	if c.full != nil || c.walker == nil {
		return false
	}
	c.walkers.mu.Lock()
	defer c.walkers.mu.Unlock()
	if c.walker.steps != c.at {
		return false
	}
	f(c.walker)
	return true
}

func (c *switchChild) materialize() Instance {
	if c.full == nil {
		in, err := c.walkers.build(c.ds, Options{})
		if err != nil {
			// Neither switch-walker model's constructor can fail once
			// BuildModel accepted its parameters.
			panic(fmt.Sprintf("mcheck: rebuilding a switch schedule: %v", err))
		}
		if c.walker != nil {
			in.RunTo(c.at)
		}
		c.full = in
	}
	return c.full
}

func (c *switchChild) RunTo(at uint64) bool {
	if c.full == nil && c.walker == nil {
		c.walkers.mu.Lock()
		il := c.walkers.pause(c.ds, at)
		done := il != nil && il.done
		c.walkers.mu.Unlock()
		if il != nil {
			c.walker, c.at = il, at
			return done
		}
	}
	return c.materialize().RunTo(at)
}

func (c *switchChild) RunToEnd() { c.materialize().RunToEnd() }

func (c *switchChild) Cursor() uint64 {
	if c.full != nil {
		return c.full.Cursor()
	}
	return c.at
}

func (c *switchChild) StateHash() (h [32]byte, ok bool) {
	if c.paused(func(il *interleaver) { h = hashSMP(il.sys, il.next(), 0) }) {
		return h, true
	}
	return c.materialize().StateHash()
}

func (c *switchChild) Violations() (v []Violation) {
	if c.paused(func(il *interleaver) { v = il.vio.list }) {
		return v
	}
	return c.materialize().Violations()
}

package core

import (
	"repro/internal/uniproc"
)

// Bounded is implemented by mechanisms whose atomic operations can be
// attempted with a bounded number of sequence restarts, reporting failure
// instead of retrying forever. RAS implements it via Env.TryRestartable;
// abandoning is safe because an uncommitted attempt has no visible write.
type Bounded interface {
	Mechanism
	// TryTestAndSet is TestAndSet bounded to maxRestarts rollbacks; ok is
	// false if the bound was hit (and the word is untouched).
	TryTestAndSet(e *uniproc.Env, w *Word, maxRestarts uint64) (old Word, ok bool)
	// TryFetchAndAdd is FetchAndAdd bounded the same way.
	TryFetchAndAdd(e *uniproc.Env, w *Word, delta Word, maxRestarts uint64) (old Word, ok bool)
}

// TryTestAndSet implements Bounded.
func (r *RAS) TryTestAndSet(e *uniproc.Env, w *Word, maxRestarts uint64) (Word, bool) {
	if !r.Inline {
		e.ChargeCall()
	}
	var old Word
	ok := e.TryRestartable(maxRestarts, func() {
		old = e.Load(w)
		e.ChargeALU(1)
		e.Commit(w, 1)
	})
	return old, ok
}

// TryFetchAndAdd implements Bounded.
func (r *RAS) TryFetchAndAdd(e *uniproc.Env, w *Word, delta Word, maxRestarts uint64) (Word, bool) {
	if !r.Inline {
		e.ChargeCall()
	}
	var old Word
	ok := e.TryRestartable(maxRestarts, func() {
		old = e.Load(w)
		e.ChargeALU(1)
		e.Commit(w, old+delta)
	})
	return old, ok
}

// Degrading is an adaptive Mechanism: it runs a fast optimistic mechanism
// (RAS) while it behaves, monitors its restart rate, and permanently
// demotes to a pessimistic fallback (typically kernel emulation) when the
// sequence proves pathological — either a single operation exceeding
// opRestartLimit rollbacks (the §3.1 livelock), or a restart rate of at
// least rateNum/rateDen per operation over a window of rateWindow
// operations. Demotion is one-way: a sequence that cannot fit the quantum
// today will not fit it tomorrow, and emulation is always correct, just
// slower. Demotions are recorded in the processor's stats and trace via
// Env.CountDemotion.
//
// Degrading is built for the virtual uniprocessor's single-baton
// discipline: its counters need no synchronization because at most one
// thread executes at a time.
type Degrading struct {
	fast Bounded
	slow Mechanism

	attempts uint64 // fast-path operations this window
	restarts uint64 // rollbacks observed this window
	demoted  bool
}

// The demotion thresholds: rollbacks one operation may take, and the
// restarts-per-operation rate over a window of operations.
const (
	opRestartLimit   = 8
	rateWindow       = 64
	rateNum, rateDen = 1, 2
)

// NewDegrading wraps fast with adaptive demotion to slow.
func NewDegrading(fast Bounded, slow Mechanism) *Degrading {
	return &Degrading{fast: fast, slow: slow}
}

// Name implements Mechanism.
func (d *Degrading) Name() string {
	return "degrading(" + d.fast.Name() + "->" + d.slow.Name() + ")"
}

// Demoted reports whether the mechanism has fallen back permanently.
func (d *Degrading) Demoted() bool { return d.demoted }

func (d *Degrading) demote(e *uniproc.Env) {
	// A second thread may have been mid-attempt when the first demoted;
	// count the transition once.
	if d.demoted {
		return
	}
	d.demoted = true
	e.CountDemotion()
}

// observe accounts one fast-path operation and its rollbacks, demoting if
// the windowed restart rate crosses the threshold.
func (d *Degrading) observe(e *uniproc.Env, restarts uint64) {
	d.attempts++
	d.restarts += restarts
	if d.attempts < rateWindow {
		return
	}
	if d.restarts*rateDen >= d.attempts*rateNum {
		d.demote(e)
		return
	}
	d.attempts, d.restarts = 0, 0
}

// TestAndSet implements Mechanism.
func (d *Degrading) TestAndSet(e *uniproc.Env, w *Word) Word {
	if d.demoted {
		return d.slow.TestAndSet(e, w)
	}
	before := e.Self().Restarts
	old, done := d.fast.TryTestAndSet(e, w, opRestartLimit)
	if !done {
		d.demote(e)
		return d.slow.TestAndSet(e, w)
	}
	d.observe(e, e.Self().Restarts-before)
	return old
}

// Clear implements Mechanism: a release store is atomic either way.
func (d *Degrading) Clear(e *uniproc.Env, w *Word) {
	if d.demoted {
		d.slow.Clear(e, w)
		return
	}
	d.fast.Clear(e, w)
}

// FetchAndAdd implements Mechanism.
func (d *Degrading) FetchAndAdd(e *uniproc.Env, w *Word, delta Word) Word {
	if d.demoted {
		return d.slow.FetchAndAdd(e, w, delta)
	}
	before := e.Self().Restarts
	old, done := d.fast.TryFetchAndAdd(e, w, delta, opRestartLimit)
	if !done {
		d.demote(e)
		return d.slow.FetchAndAdd(e, w, delta)
	}
	d.observe(e, e.Self().Restarts-before)
	return old
}

package obs

// Rebase adapts a sink for multi-run harnesses. Every substrate run starts
// its virtual clock at cycle 0 and its thread IDs at 0; publishing several
// runs into one sink verbatim would interleave timestamps backwards and
// collapse unrelated threads onto one track. Rebase shifts each run onto a
// single monotone timeline: Advance() (called before each run) moves the
// cycle origin past everything seen so far and renumbers the next run's
// threads into a fresh ID range. Until the first event arrives Advance
// has nothing to move past, so the first run publishes unshifted.
type Rebase struct {
	sink       Sink
	offset     uint64 // added to every cycle
	maxCycle   uint64 // highest rebased cycle seen
	threadBase int    // added to every thread ID
	maxThread  int    // highest rebased thread ID seen (-1 before any)
}

// NewRebase wraps sink; the first run publishes unshifted.
func NewRebase(sink Sink) *Rebase { return &Rebase{sink: sink, maxThread: -1} }

// Advance starts a new run: subsequent events land after every event
// already published, on fresh thread tracks.
func (r *Rebase) Advance() {
	r.offset = r.maxCycle
	r.threadBase = r.maxThread + 1
}

// Event implements Sink.
func (r *Rebase) Event(ev Event) {
	ev.Cycle += r.offset
	ev.Thread += r.threadBase
	if ev.Cycle > r.maxCycle {
		r.maxCycle = ev.Cycle
	}
	if ev.Thread > r.maxThread {
		r.maxThread = ev.Thread
	}
	// Thread-ID arguments (fork/unblock/repair targets) live in the same
	// ID space as Thread and must be renumbered with it. They also extend
	// the run's occupied ID range: a forked thread that never emits an
	// event of its own (killed before dispatch, or scheduled on a CPU
	// whose stream is stitched separately) would otherwise leave maxThread
	// low and let the next run's base collide with its ID.
	switch ev.Type {
	case KindFork, KindUnblock, KindRepair:
		ev.Arg += uint64(r.threadBase)
		if int(ev.Arg) > r.maxThread {
			r.maxThread = int(ev.Arg)
		}
	}
	r.sink.Event(ev)
}

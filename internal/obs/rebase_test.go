package obs

import "testing"

func TestRebaseMonotoneAcrossRuns(t *testing.T) {
	c := &Capture{}
	r := NewRebase(c)

	// Run 1: two threads, cycles 0..300.
	r.Event(Event{Cycle: 0, Type: KindDispatch, Thread: 0})
	r.Event(Event{Cycle: 300, Type: KindExit, Thread: 1})
	r.Advance()
	// Run 2: fresh clock and thread IDs starting at zero again.
	r.Event(Event{Cycle: 0, Type: KindDispatch, Thread: 0})
	r.Event(Event{Cycle: 50, Type: KindFork, Thread: 0, Arg: 1})
	r.Event(Event{Cycle: 120, Type: KindExit, Thread: 1})

	evs := c.Events()
	if len(evs) != 5 {
		t.Fatalf("captured %d events, want 5", len(evs))
	}
	var prev uint64
	for i, e := range evs {
		if e.Cycle < prev {
			t.Fatalf("event %d: cycle %d < %d not monotone", i, e.Cycle, prev)
		}
		prev = e.Cycle
	}
	// Run 2 threads renumbered past run 1's max (1), so 0->2, 1->3.
	if evs[2].Thread != 2 || evs[4].Thread != 3 {
		t.Errorf("run 2 threads = %d,%d, want 2,3", evs[2].Thread, evs[4].Thread)
	}
	// Fork's Arg is a thread ID and must be remapped into the same range.
	if evs[3].Type != KindFork || evs[3].Arg != 3 {
		t.Errorf("fork arg = %d, want remapped 3", evs[3].Arg)
	}
	// Run 2 cycles shifted past run 1's horizon (300).
	if evs[2].Cycle != 300 || evs[4].Cycle != 420 {
		t.Errorf("run 2 cycles = %d,%d, want 300,420", evs[2].Cycle, evs[4].Cycle)
	}
}

// The first run publishes unshifted even when the harness advances before
// it, as every harness does: an Advance before any event moves nothing.
func TestRebaseFirstSegmentUnshifted(t *testing.T) {
	c := &Capture{}
	r := NewRebase(c)
	r.Advance()
	r.Event(Event{Cycle: 5, Type: KindDispatch, Thread: 0})
	r.Event(Event{Cycle: 9, Type: KindFork, Thread: 0, Arg: 1})
	r.Advance()
	r.Event(Event{Cycle: 2, Type: KindDispatch, Thread: 0})

	evs := c.Events()
	if evs[0].Thread != 0 || evs[0].Cycle != 5 || evs[1].Arg != 1 {
		t.Errorf("first run = t%d at %d forking t%d, want t0 at 5 forking t1", evs[0].Thread, evs[0].Cycle, evs[1].Arg)
	}
	if evs[2].Thread != 2 || evs[2].Cycle != 11 {
		t.Errorf("second run = t%d at %d, want t2 at 11", evs[2].Thread, evs[2].Cycle)
	}
}

// Regression: a forked thread that never emits an event of its own (killed
// before dispatch, or emitting only on another CPU's stream) must still
// reserve its ID. The renumbering base once ignored fork Args, so the next
// run's threads collided with the silent child's track.
func TestRebaseSilentForkChildDoesNotCollide(t *testing.T) {
	c := &Capture{}
	r := NewRebase(c)

	// Run 1: thread 0 forks thread 5, which never emits anything.
	r.Event(Event{Cycle: 0, Type: KindDispatch, Thread: 0})
	r.Event(Event{Cycle: 10, Type: KindFork, Thread: 0, Arg: 5})
	r.Advance()
	// Run 2: its thread 0 must land past the silent child's ID 5.
	r.Event(Event{Cycle: 0, Type: KindDispatch, Thread: 0})

	evs := c.Events()
	if len(evs) != 3 {
		t.Fatalf("captured %d events, want 3", len(evs))
	}
	if evs[2].Thread != 6 {
		t.Errorf("run 2 thread renumbered to %d, want 6 (past the forked 5)", evs[2].Thread)
	}

	seen := map[int]bool{evs[0].Thread: true, int(evs[1].Arg): true}
	if seen[evs[2].Thread] {
		t.Errorf("thread ID %d collides with run 1's range", evs[2].Thread)
	}
}

func TestRebasedStreamExportsValidChrome(t *testing.T) {
	// The whole point of Rebase: two runs through one capture still render
	// into a structurally valid Chrome trace.
	c := &Capture{}
	r := NewRebase(c)
	for run := 0; run < 3; run++ {
		r.Event(Event{Cycle: 0, Type: KindDispatch, Thread: 0})
		r.Event(Event{Cycle: 10, Type: KindInject, Thread: 0, Arg: 1})
		r.Event(Event{Cycle: 90, Type: KindExit, Thread: 0})
		r.Advance()
	}
	doc := chromeDoc(t, c.Events())
	chaos, err := ValidateChrome(doc)
	if err != nil {
		t.Fatalf("rebased trace invalid: %v", err)
	}
	if chaos != 3 {
		t.Errorf("chaos instants = %d, want 3", chaos)
	}
}

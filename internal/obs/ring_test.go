package obs

import "testing"

func ev(i int) Event { return Event{Cycle: uint64(i), Type: KindDispatch, Thread: i} }

func TestRingOverflowDropsOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Event(ev(i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The survivors must be the newest four, oldest-first.
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestRingDroppedCounterExact(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		r.Event(ev(i))
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped %d before overflow, want 0", r.Dropped())
	}
	for i := 3; i < 11; i++ {
		r.Event(ev(i))
	}
	if r.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", r.Dropped())
	}
	if r.Total() != 11 {
		t.Errorf("total = %d, want 11", r.Total())
	}
	// The documented invariant: Total == retained + Dropped, exactly.
	if got := uint64(len(r.Events())) + r.Dropped(); got != r.Total() {
		t.Errorf("retained+dropped = %d, total = %d", got, r.Total())
	}
}

func TestRingFullDrainRefillPreservesOrdering(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ { // fill past capacity
		r.Event(ev(i))
	}
	drained := r.Drain()
	if len(drained) != 4 {
		t.Fatalf("drained %d, want 4", len(drained))
	}
	for i, e := range drained {
		if want := uint64(3 + i); e.Cycle != want {
			t.Errorf("drained[%d].Cycle = %d, want %d", i, e.Cycle, want)
		}
	}
	if len(r.Events()) != 0 {
		t.Fatalf("ring not empty after drain")
	}
	// Refill past capacity again: ordering must hold with the same buffer.
	for i := 100; i < 106; i++ {
		r.Event(ev(i))
	}
	refilled := r.Events()
	if len(refilled) != 4 {
		t.Fatalf("refilled %d, want 4", len(refilled))
	}
	for i, e := range refilled {
		if want := uint64(102 + i); e.Cycle != want {
			t.Errorf("refilled[%d].Cycle = %d, want %d", i, e.Cycle, want)
		}
	}
	// Totals accumulate across the drain: 7 + 6 published, 3 + 2 dropped.
	if r.Total() != 13 {
		t.Errorf("total = %d, want 13", r.Total())
	}
	if r.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", r.Dropped())
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Event(ev(1))
	r.Event(ev(2))
	evs := r.Events()
	if len(evs) != 1 || evs[0].Cycle != 2 {
		t.Errorf("zero-capacity ring retained %v", evs)
	}
}

func TestCaptureUnbounded(t *testing.T) {
	c := &Capture{}
	for i := 0; i < 10000; i++ {
		c.Event(ev(i))
	}
	if len(c.Events()) != 10000 {
		t.Fatalf("captured %d, want 10000", len(c.Events()))
	}
	if c.Events()[9999].Cycle != 9999 {
		t.Error("capture order broken")
	}
}

// Dropped reports how many events were overwritten by newer ones.
func (r *Ring) Dropped() uint64 { return r.dropped }

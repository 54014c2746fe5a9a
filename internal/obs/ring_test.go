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

// Total counts every published event, and the ring retains exactly the
// last min(Total, capacity) of them.
func TestRingTotalCountsEveryEvent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		r.Event(ev(i))
	}
	if r.Total() != 3 || len(r.Events()) != 3 {
		t.Fatalf("before overflow: total %d, retained %d, want 3/3", r.Total(), len(r.Events()))
	}
	for i := 3; i < 11; i++ {
		r.Event(ev(i))
	}
	if r.Total() != 11 || len(r.Events()) != 3 {
		t.Errorf("after overflow: total %d, retained %d, want 11/3", r.Total(), len(r.Events()))
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

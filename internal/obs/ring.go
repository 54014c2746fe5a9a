package obs

import "strings"

// Ring is the bounded event buffer behind a tail: a fixed-size
// drop-oldest ring. Publishing never allocates after the buffer fills and
// never blocks; when capacity is exceeded the oldest event is overwritten
// and Dropped is incremented, so Total() == len(Events()) + Dropped()
// always holds exactly.
type Ring struct {
	buf     []Event
	next    int
	total   uint64
	dropped uint64
}

// NewRing creates a ring retaining the last n events (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Event implements Sink.
func (r *Ring) Event(ev Event) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % cap(r.buf)
	r.dropped++
}

// Total reports how many events were published in all, retained or not.
func (r *Ring) Total() uint64 { return r.total }

// Dropped reports how many events were overwritten by newer ones.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Drain returns the retained events in chronological order and empties the
// ring. Total and Dropped keep accumulating across drains.
func (r *Ring) Drain() []Event {
	out := r.Events()
	r.buf = r.buf[:0]
	r.next = 0
	return out
}

// String renders the retained events, one per line.
func (r *Ring) String() string {
	var b strings.Builder
	for _, ev := range r.Events() {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Capture is an unbounded Sink retaining every event, for tests that
// inspect a whole run (the Chrome writer streams instead of holding one).
type Capture struct {
	evs []Event
}

// Event implements Sink.
func (c *Capture) Event(ev Event) { c.evs = append(c.evs, ev) }

// Events returns everything captured, in publish order.
func (c *Capture) Events() []Event { return c.evs }

// Len returns the number of captured events.
func (c *Capture) Len() int { return len(c.evs) }

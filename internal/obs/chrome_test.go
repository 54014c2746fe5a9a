package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// stream is a plausible two-thread schedule with one chaos injection.
func chromeStream() []Event {
	return []Event{
		{Cycle: 0, Type: KindDispatch, Thread: 0},
		{Cycle: 40, Type: KindSyscall, Thread: 0, PC: 0x1000, Arg: 2},
		{Cycle: 100, Type: KindPreempt, Thread: 0},
		{Cycle: 100, Type: KindDispatch, Thread: 1},
		{Cycle: 150, Type: KindInject, Thread: 1, Arg: 0x4},
		{Cycle: 180, Type: KindRestart, Thread: 1, PC: 0x2000},
		{Cycle: 200, Type: KindYield, Thread: 1},
		{Cycle: 200, Type: KindDispatch, Thread: 0},
		{Cycle: 260, Type: KindExit, Thread: 0},
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	data, err := ChromeTrace(chromeStream())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := ValidateChrome(doc)
	if err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
	if chaos != 1 {
		t.Errorf("chaos instants = %d, want 1", chaos)
	}

	// The injection must be mirrored onto the dedicated chaos track with
	// its own thread_name metadata.
	var chaosNamed, sawInject bool
	for _, ev := range doc.TraceEvents {
		if ev.TID != ChaosTID {
			continue
		}
		switch ev.Phase {
		case "M":
			chaosNamed = true
			if ev.Args["name"] != "chaos" {
				t.Errorf("chaos track named %v", ev.Args["name"])
			}
		case "i":
			sawInject = true
			if ev.TS != 150 {
				t.Errorf("inject instant at ts %d, want 150", ev.TS)
			}
		}
	}
	if !chaosNamed || !sawInject {
		t.Errorf("chaos track incomplete: named=%v inject=%v", chaosNamed, sawInject)
	}
}

// The streamed bytes are encoding/json's indented layout of the document
// they decode to, for an empty stream too.
func TestChromeWriterMatchesMarshalIndent(t *testing.T) {
	for _, evs := range [][]Event{nil, chromeStream(), openTracks()} {
		data := mustChrome(t, evs)
		want, err := json.MarshalIndent(chromeDoc(t, evs), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("streamed trace differs from MarshalIndent:\n%s\nwant:\n%s", data, want)
		}
	}
}

// openTracks leaves four running slices open on two CPUs when it ends.
func openTracks() []Event {
	return []Event{
		{Cycle: 0, Type: KindDispatch, Thread: 3, CPU: 1},
		{Cycle: 0, Type: KindDispatch, Thread: 2},
		{Cycle: 10, Type: KindSyscall, Thread: 2, PC: 0x1000, Arg: 7},
		{Cycle: 20, Type: KindDispatch, Thread: 0, CPU: 1},
		{Cycle: 30, Type: KindDispatch, Thread: 1},
		{Cycle: 40, Type: KindInject, Thread: 1, Arg: 0x4},
	}
}

// Slices still open at the end close in (pid, tid) order, so converting
// the same stream twice gives the same bytes.
func TestChromeTraceClosesInTrackOrder(t *testing.T) {
	first := mustChrome(t, openTracks())
	if second := mustChrome(t, openTracks()); !bytes.Equal(first, second) {
		t.Fatal("two conversions of one stream differ")
	}
	doc := chromeDoc(t, openTracks())
	evs := doc.TraceEvents
	tail := evs[len(evs)-4:]
	want := []track{{0, 1}, {0, 2}, {1, 0}, {1, 3}}
	for i, ev := range tail {
		if ev.Phase != "E" || ev.TS != 40 || (track{ev.PID, ev.TID}) != want[i] {
			t.Errorf("close %d = %s at %d on pid %d tid %d, want E at 40 on %v", i, ev.Phase, ev.TS, ev.PID, ev.TID, want[i])
		}
	}
}

func TestChromeTraceSliceShape(t *testing.T) {
	doc := chromeDoc(t, chromeStream())
	// Count running slices per thread: t0 runs twice, t1 once.
	begins := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "B" && ev.Name == "running" {
			begins[ev.TID]++
		}
	}
	if begins[0] != 2 || begins[1] != 1 {
		t.Errorf("running slices per thread = %v, want t0:2 t1:1", begins)
	}
	if !strings.Contains(string(mustChrome(t, chromeStream())), `"displayTimeUnit"`) {
		t.Error("container missing displayTimeUnit")
	}
}

func TestChromeTraceClosesDanglingSlices(t *testing.T) {
	// A dispatch with no matching suspension: the exporter must close the
	// slice at the last cycle so ValidateChrome's balance check passes.
	doc := chromeDoc(t, []Event{
		{Cycle: 0, Type: KindDispatch, Thread: 0},
		{Cycle: 90, Type: KindSyscall, Thread: 0},
	})
	if _, err := ValidateChrome(doc); err != nil {
		t.Fatalf("dangling slice not closed: %v", err)
	}
}

func TestChromeTraceDoubleDispatch(t *testing.T) {
	// Back-to-back dispatches of the same thread (restart paths do this)
	// must not produce nested unbalanced B events.
	doc := chromeDoc(t, []Event{
		{Cycle: 0, Type: KindDispatch, Thread: 0},
		{Cycle: 50, Type: KindDispatch, Thread: 0},
		{Cycle: 80, Type: KindExit, Thread: 0},
	})
	if _, err := ValidateChrome(doc); err != nil {
		t.Fatalf("double dispatch broke slice balance: %v", err)
	}
}

func TestValidateChromeRejectsBackwardsTimestamps(t *testing.T) {
	doc := &ChromeDoc{TraceEvents: []ChromeEvent{
		{Name: "a", Phase: "i", TS: 100, TID: 0, Scope: "t"},
		{Name: "b", Phase: "i", TS: 50, TID: 0, Scope: "t"},
	}}
	if _, err := ValidateChrome(doc); err == nil {
		t.Fatal("backwards timestamps on one track not rejected")
	}
	// Different tracks may interleave freely.
	doc2 := &ChromeDoc{TraceEvents: []ChromeEvent{
		{Name: "a", Phase: "i", TS: 100, TID: 0, Scope: "t"},
		{Name: "b", Phase: "i", TS: 50, TID: 1, Scope: "t"},
	}}
	if _, err := ValidateChrome(doc2); err != nil {
		t.Fatalf("cross-track interleaving wrongly rejected: %v", err)
	}
}

func TestValidateChromeRejectsUnbalancedSlices(t *testing.T) {
	if _, err := ValidateChrome(&ChromeDoc{TraceEvents: []ChromeEvent{
		{Name: "running", Phase: "E", TS: 10, TID: 0},
	}}); err == nil {
		t.Error("E without B not rejected")
	}
	if _, err := ValidateChrome(&ChromeDoc{TraceEvents: []ChromeEvent{
		{Name: "running", Phase: "B", TS: 10, TID: 0},
	}}); err == nil {
		t.Error("unclosed B not rejected")
	}
	if _, err := ValidateChrome(&ChromeDoc{TraceEvents: []ChromeEvent{
		{Name: "x", Phase: "Z", TS: 10, TID: 0},
	}}); err == nil {
		t.Error("unknown phase not rejected")
	}
}

func mustChrome(t *testing.T, evs []Event) []byte {
	t.Helper()
	data, err := ChromeTrace(evs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// chromeDoc converts evs and decodes the bytes back into a document.
func chromeDoc(t *testing.T, evs []Event) *ChromeDoc {
	t.Helper()
	doc, err := DecodeChromeTrace(mustChrome(t, evs))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

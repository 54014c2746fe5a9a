package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every event Trace publishes reaches the ring tail, the Chrome trace and
// the metrics; Close writes them to their files, or to its writer for "-",
// in that order.
func TestObserverFanOut(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	trace := filepath.Join(dir, "t.json")
	ob, err := NewObserver(Outputs{Tail: 2, TraceOut: trace, Metrics: "-"})
	if err != nil {
		t.Fatal(err)
	}
	ob.TraceLine = "trace %s %d\n"
	for _, ev := range chromeStream() {
		ob.Trace.Event(ev)
	}
	var out strings.Builder
	if err := ob.Close(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	tail := strings.Index(got, "\nlast 2 of 9 kernel events:\n")
	line := strings.Index(got, "trace "+trace+" 9\n")
	metrics := strings.Index(got, "dispatches_total")
	if tail < 0 || line < tail || metrics < line {
		t.Errorf("Close wrote tail, trace line and metrics out of order or not at all:\n%s", got)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(mustChrome(t, chromeStream())) {
		t.Error("streamed trace differs from ChromeTrace of the same events")
	}

	// A "-" trace lands on the writer, and its temporary file is gone.
	ob, err = NewObserver(Outputs{TraceOut: "-"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range chromeStream() {
		ob.Trace.Event(ev)
	}
	out.Reset()
	if err := ob.Close(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(mustChrome(t, chromeStream())) {
		t.Errorf("\"-\" trace differs from ChromeTrace:\n%s", out.String())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "trace-*")); len(left) != 0 {
		t.Errorf("temporary trace files left behind: %v", left)
	}
}

// With no event output on, nothing traces: Trace and Sink are nil.
func TestObserverOff(t *testing.T) {
	ob, err := NewObserver(Outputs{Profile: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ob.Trace != nil || ob.Sink() != nil || ob.Profiler == nil {
		t.Errorf("profile-only observer: Trace %v, Sink %v, Profiler %v", ob.Trace, ob.Sink(), ob.Profiler)
	}
}

// The host CPU profile runs from NewObserver to Close: while it runs no
// second one starts, Close leaves a pprof file, and then one can start
// again.
func TestObserverCPUProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	ob, err := NewObserver(Outputs{CPUProfile: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewObserver(Outputs{CPUProfile: filepath.Join(dir, "second.pprof")}); err == nil {
		t.Error("a second CPU profile started while the first ran")
	}
	if err := ob.Close(io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) { // gzip-compressed protobuf
		t.Errorf("CPU profile is not a pprof file: % x", data[:min(len(data), 8)])
	}
	ob, err = NewObserver(Outputs{CPUProfile: path})
	if err != nil {
		t.Fatalf("Close left the CPU profile running: %v", err)
	}
	if err := ob.Close(io.Discard); err != nil {
		t.Fatal(err)
	}
}

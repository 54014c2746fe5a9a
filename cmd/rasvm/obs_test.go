package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestUnknownDemoListsAvailable(t *testing.T) {
	o := demo("registration", "registered", 100)
	o.demo = "frobnicate"
	err := run(io.Discard, o)
	if err == nil {
		t.Fatal("unknown demo accepted")
	}
	// The satellite contract: the error names every available demo so the
	// CLI (which exits nonzero on error) is self-documenting.
	for _, s := range scenarios {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not list demo %q", err, s.name)
		}
	}
}

func TestTraceOutRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")

	// Quantum 53 preempts inside the registered sequence: restarts and
	// preemptions are guaranteed nonzero.
	o := demo("registration", "registered", 53)
	o.iters = 60
	o.traceOut = tracePath
	o.metrics = metricsPath
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	md, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"restarts_total", "preemptions_total", "dispatches_total"} {
		val, ok := metricValue(string(md), counter)
		if !ok {
			t.Errorf("metrics dump missing %s:\n%s", counter, md)
			continue
		}
		if val == 0 {
			t.Errorf("%s = 0, want nonzero on the quantum-53 workload", counter)
		}
	}
}

// A -kill-at injection must survive the export as an instant on the chaos
// track.
func TestTraceOutRecordsChaosInjection(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	o := demo("registration", "registered", 300)
	o.demo = "recoverable"
	o.workers, o.iters = 3, 40
	o.killAt = "1500"
	o.traceOut = tracePath
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := obs.ValidateChrome(doc)
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if chaos < 1 {
		t.Errorf("chaos instants = %d, want >= 1 for -kill-at", chaos)
	}
}

func TestFoldedProfileOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prof.folded")
	o := demo("registration", "registered", 500)
	o.folded = path
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, ";") {
		t.Errorf("folded profile has no call stacks:\n%s", s)
	}
	if !strings.Contains(s, "[kernel]") {
		t.Errorf("folded profile missing kernel attribution:\n%s", s)
	}
}

// Every demo honours each observability flag or refuses it by name:
// -trace prints the ring tail, -trace-out writes a valid Chrome trace,
// -metrics the counters, -profile the report, -folded the stacks and
// -cpuprofile a host profile.
// Every refusal is one its scenario declares.
func TestDemosHonourObservabilityFlags(t *testing.T) {
	lines := map[string]string{
		"counter":     "-demo counter -workers 2 -iters 20 -quantum 53",
		"recoverable": "-demo recoverable -workers 2 -iters 20 -quantum 300 -kill-at 500",
		"persistent":  "-demo persistent -workers 2 -iters 20 -crash-at 300",
		"journal":     "-demo journal -iters 20 -crash-at 300",
		"smp":         "-demo smp -cpus 2 -workers 1 -iters 20",
		"server":      "-demo server -cpus 2 -workers 1 -iters 10",
		"qlock":       "-demo qlock -lock mcs -cpus 2 -iters 10",
		"resilience":  "-demo resilience",
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	flags := []struct {
		flag, arg string
		honoured  func(stdout, file string) bool
	}{
		{"-trace", "3", func(stdout, _ string) bool { return strings.Contains(stdout, "kernel events:\n[") }},
		{"-trace-out", out, func(_, file string) bool {
			doc, err := obs.DecodeChromeTrace([]byte(file))
			if err != nil {
				return false
			}
			_, err = obs.ValidateChrome(doc)
			return err == nil && len(doc.TraceEvents) > 0
		}},
		{"-metrics", out, func(_, file string) bool {
			n, ok := metricValue(file, "dispatches_total")
			return ok && n > 0
		}},
		{"-profile", "3", func(stdout, _ string) bool { return strings.Contains(stdout, "cycle profile (top 3)") }},
		{"-folded", out, func(_, file string) bool { return strings.Contains(file, "[kernel] ") }},
		// A pprof profile is gzip-compressed protobuf.
		{"-cpuprofile", out, func(_, file string) bool { return strings.HasPrefix(file, "\x1f\x8b") }},
	}
	for _, s := range scenarios {
		line, ok := lines[s.name]
		if !ok {
			t.Errorf("demo %q has no case", s.name)
			continue
		}
		for _, f := range flags {
			os.Remove(out)
			o, _ := parseFlags(append(strings.Fields(line), f.flag, f.arg))
			var stdout strings.Builder
			err := run(&stdout, o)
			file, _ := os.ReadFile(out)
			refused := false
			for _, r := range s.refuses {
				refused = refused || r == f.flag
			}
			switch {
			case refused:
				if err == nil || !strings.Contains(err.Error(), f.flag) {
					t.Errorf("%s %s: err = %v, want a refusal naming %s", line, f.flag, err, f.flag)
				}
			case err != nil:
				t.Errorf("%s %s: %v", line, f.flag, err)
			case !f.honoured(stdout.String(), string(file)):
				t.Errorf("%s %s: flag dropped; stdout:\n%s\nfile:\n%.300s", line, f.flag, stdout.String(), file)
			}
		}
	}
}

// metricValue extracts a counter's value from a Registry dump line of the
// form "name                value  # help".
func metricValue(dump, name string) (uint64, bool) {
	for _, line := range strings.Split(dump, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == name {
			var v uint64
			for _, c := range fields[1] {
				if c < '0' || c > '9' {
					return 0, false
				}
				v = v*10 + uint64(c-'0')
			}
			return v, true
		}
	}
	return 0, false
}

// A persist plan runs the uniproc server plane: every boot and the
// calibration still stream into -trace-out through the observer's
// harness.
func TestResiliencePersistPlanTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	o, _ := parseFlags([]string{"-demo", "resilience",
		"-plan", "crashplan:seed=0x1,point=persist,span=25,crashes=120,mix=1:2:1", "-trace-out", path})
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

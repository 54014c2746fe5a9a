package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// smpDemo builds options for the built-in SMP counter workload.
func smpDemo(lock string, cpus int) options {
	return options{
		demo: "smp", lock: lock, cpus: cpus, quantum: 500,
		workers: 2, iters: 30,
	}
}

func TestDemoSMPAllLocks(t *testing.T) {
	for _, lock := range []string{"hybrid", "spinlock", "llsc"} {
		for _, cpus := range []int{1, 2} {
			if err := run(io.Discard, smpDemo(lock, cpus)); err != nil {
				t.Errorf("%s/%dcpu: %v", lock, cpus, err)
			}
		}
	}
}

// The unsound control still terminates; the demo reports the lost updates
// rather than failing.
func TestDemoSMPRASOnly(t *testing.T) {
	if err := run(io.Discard, smpDemo("ras-only", 2)); err != nil {
		t.Error(err)
	}
}

func TestDemoSMPKillTargetsCPU(t *testing.T) {
	o := smpDemo("llsc", 2)
	o.killAt = "2000"
	o.killCPU = 1
	if err := run(io.Discard, o); err != nil {
		t.Error(err)
	}
}

func TestDemoSMPTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smp.json")
	o := smpDemo("hybrid", 2)
	o.traceOut = path
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file not written: %v", err)
	}
}

func TestDemoSMPFlagErrors(t *testing.T) {
	if err := run(io.Discard, smpDemo("warp-drive", 1)); err == nil {
		t.Error("unknown -lock accepted")
	}
	if err := run(io.Discard, smpDemo("hybrid", 0)); err == nil {
		t.Error("-cpus 0 accepted")
	}
	o := smpDemo("hybrid", 2)
	o.killCPU = 5
	if err := run(io.Discard, o); err == nil {
		t.Error("-kill-cpu out of range accepted")
	}
	o = smpDemo("hybrid", 1)
	o.killAt = "12,frog"
	if err := run(io.Discard, o); err == nil {
		t.Error("malformed -kill-at accepted")
	}
}

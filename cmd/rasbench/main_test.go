package main

import (
	"math"
	"strings"
	"testing"
)

func TestRunEachTable(t *testing.T) {
	// Small iteration counts: this verifies wiring, not statistics.
	for _, table := range []string{"1", "2", "4", "i860", "lamport", "ablation", "wbuf", "ranges", "quantum", "workers"} {
		if err := runOpts(benchOpts{table: table, iters: 500, scale: 1}); err != nil {
			t.Errorf("table %s: %v", table, err)
		}
	}
}

func TestRunTable3Small(t *testing.T) {
	if err := runOpts(benchOpts{table: "3", iters: 500, scale: 1}); err != nil {
		t.Errorf("table 3: %v", err)
	}
}

func TestRunHoldups(t *testing.T) {
	if err := runOpts(benchOpts{table: "holdups", iters: 500, scale: 1}); err != nil {
		t.Errorf("holdups: %v", err)
	}
}

func TestRunChaos(t *testing.T) {
	if err := runOpts(benchOpts{table: "chaos", iters: 500, scale: 1}); err != nil {
		t.Errorf("chaos: %v", err)
	}
}

func TestRunChaosSeedReplay(t *testing.T) {
	// The -seed/-level replay path used by one-line reproducers.
	if err := runOpts(benchOpts{table: "chaos", iters: 500, scale: 1, seed: 0xBEEF, level: 1}); err != nil {
		t.Errorf("chaos replay: %v", err)
	}
}

func TestRunRecovery(t *testing.T) {
	if err := runOpts(benchOpts{table: "recovery", iters: 500, scale: 1}); err != nil {
		t.Errorf("recovery: %v", err)
	}
}

func TestRunSMP(t *testing.T) {
	if err := runOpts(benchOpts{table: "smp", iters: 500, scale: 1, cpus: "1,2"}); err != nil {
		t.Errorf("smp: %v", err)
	}
}

func TestRunSMPBadCPUList(t *testing.T) {
	if err := runOpts(benchOpts{table: "smp", iters: 500, scale: 1, cpus: "1,zero"}); err == nil || !strings.Contains(err.Error(), "-cpus") {
		t.Errorf("bad -cpus list: err = %v, want an error naming -cpus", err)
	}
}

func TestRunResilience(t *testing.T) {
	if err := runOpts(benchOpts{table: "resilience", iters: 500, scale: 1}); err != nil {
		t.Errorf("table resilience: %v", err)
	}
}

func TestRunUnknownTable(t *testing.T) {
	if err := runOpts(benchOpts{table: "nonesuch", iters: 100, scale: 1}); err == nil {
		t.Error("unknown table accepted")
	}
}

// Out-of-range sizes are refused up front with an error naming the flag.
// Run, -iters 0 would count the guest loop down from zero 2^32 times,
// -iters 5 leaves table 2 no iterations and prints NaN, -scale 0 fails
// deep inside a workload, and a -level above 1 runs at level 1 while the
// table prints the requested value.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		o    benchOpts
	}{
		{"-iters", benchOpts{table: "1", iters: 0, scale: 1}},
		{"-iters", benchOpts{table: "2", iters: 5, scale: 1}},
		{"-scale", benchOpts{table: "3", iters: 500, scale: 0}},
		{"-scale", benchOpts{table: "3", iters: 500, scale: -1}},
		{"-level", benchOpts{table: "chaos", iters: 500, scale: 1, seed: 7, level: 5}},
		{"-level", benchOpts{table: "chaos", iters: 500, scale: 1, level: -0.5}},
		{"-level", benchOpts{table: "chaos", iters: 500, scale: 1, level: math.NaN()}},
	} {
		if err := runOpts(c.o); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: err = %v, want an error naming %s", c.o, err, c.flag)
		}
	}
	if err := runOpts(benchOpts{table: "2", iters: 10, scale: 1}); err != nil {
		t.Errorf("-iters 10 (the smallest accepted): %v", err)
	}
}

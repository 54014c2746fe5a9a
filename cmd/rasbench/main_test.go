package main

import "testing"

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
	if err := runOpts(benchOpts{table: "smp", cpus: "1,2"}); err != nil {
		t.Errorf("smp: %v", err)
	}
}

func TestRunSMPBadCPUList(t *testing.T) {
	if err := runOpts(benchOpts{table: "smp", cpus: "1,zero"}); err == nil {
		t.Error("bad -cpus list accepted")
	}
}

func TestRunResilience(t *testing.T) {
	if err := runOpts(benchOpts{table: "resilience", scale: 1}); err != nil {
		t.Errorf("table resilience: %v", err)
	}
}

func TestRunUnknownTable(t *testing.T) {
	if err := runOpts(benchOpts{table: "nonesuch", iters: 100, scale: 1}); err == nil {
		t.Error("unknown table accepted")
	}
}

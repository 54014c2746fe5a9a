package bench

import "testing"

func TestQuantumSweepShape(t *testing.T) {
	rows, err := TableQuantumSweep(&Harness{}, 4, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Restart frequency must fall (weakly) as the quantum grows, and be
	// negligible at the realistic end.
	for i := 1; i < len(rows); i++ {
		if rows[i].Restarts > rows[i-1].Restarts {
			t.Errorf("restarts rose with quantum: %d@%d -> %d@%d",
				rows[i-1].Restarts, rows[i-1].Quantum, rows[i].Restarts, rows[i].Quantum)
		}
	}
	last := rows[len(rows)-1]
	if last.RestartsPerOp > 0.01 {
		t.Errorf("restart rate at 100k-cycle quantum = %.4f, want ~0", last.RestartsPerOp)
	}
	// Even the most adversarial quantum keeps restarts bounded by
	// suspensions.
	for _, r := range rows {
		if r.Restarts > r.Suspensions {
			t.Errorf("q=%d: restarts %d exceed suspensions %d", r.Quantum, r.Restarts, r.Suspensions)
		}
	}
	t.Logf("\n%s", FormatQuantumSweep(rows))
}

func TestServerWorkersShape(t *testing.T) {
	rows, err := TableServerWorkers(&Harness{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A single uniprocessor client gains nothing from extra workers: the
	// 8-worker run must not be faster than the 1-worker run by more than
	// noise, and context switching must not shrink.
	if rows[3].Secs < rows[0].Secs*0.95 {
		t.Errorf("8 workers (%.4fs) substantially faster than 1 (%.4fs) on a uniprocessor",
			rows[3].Secs, rows[0].Secs)
	}
	for _, r := range rows {
		if r.Secs <= 0 || r.Switches == 0 {
			t.Errorf("row %+v implausible", r)
		}
	}
	t.Logf("\n%s", FormatServerWorkers(rows))
}

func TestSweepFormatters(t *testing.T) {
	if FormatQuantumSweep([]QuantumRow{{Quantum: 1}}) == "" ||
		FormatServerWorkers([]WorkerRow{{Workers: 1}}) == "" {
		t.Error("empty formatter output")
	}
}

package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/vmach/smp"
)

func testSMPConfig() SMPConfig {
	cfg := DefaultSMPConfig()
	cfg.Iters = 40
	return cfg
}

func findSMP(t *testing.T, rows []SMPRow, lock string, cpus int, mode string) SMPRow {
	t.Helper()
	for _, r := range rows {
		if r.Lock == lock && r.CPUs == cpus && r.Mode == mode {
			return r
		}
	}
	t.Fatalf("no row for %s/%dcpu/%s", lock, cpus, mode)
	return SMPRow{}
}

func TestTableSMP(t *testing.T) {
	rows, err := TableSMP(&Harness{}, testSMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3*3 { // modes × locks × CPU counts
		t.Fatalf("got %d rows, want 18", len(rows))
	}

	for _, mode := range []string{"cc", "dsm"} {
		// The single-CPU invariant: nothing is remote on a uniprocessor.
		for _, lock := range []string{"hybrid", "spinlock", "llsc"} {
			if r := findSMP(t, rows, lock, 1, mode); r.RMRs != 0 {
				t.Errorf("%s/1cpu/%s: %d RMRs, want 0", lock, mode, r.RMRs)
			}
		}
		// Cross-CPU handoffs are remote.
		for _, lock := range []string{"hybrid", "spinlock", "llsc"} {
			if r := findSMP(t, rows, lock, 2, mode); r.RMRs == 0 {
				t.Errorf("%s/2cpu/%s: 0 RMRs — cross-CPU handoffs must be remote", lock, mode)
			}
		}
		// The §7 claim: with two contenders per CPU, the hybrid's local
		// waiters spin with plain loads while the pure spinlock's pay the
		// bus-locked tas on every attempt.
		for _, cpus := range []int{1, 2, 4} {
			hy := findSMP(t, rows, "hybrid", cpus, mode)
			sp := findSMP(t, rows, "spinlock", cpus, mode)
			if hy.CyclesPerPassage >= sp.CyclesPerPassage {
				t.Errorf("%dcpu/%s: hybrid %.1f cycles/passage, spinlock %.1f — hybrid should win intra-CPU arbitration",
					cpus, mode, hy.CyclesPerPassage, sp.CyclesPerPassage)
			}
		}
	}
}

func TestTableSMPDeterministic(t *testing.T) {
	a, err := TableSMP(&Harness{}, testSMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableSMP(&Harness{}, testSMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical sweeps disagree — the SMP table must be deterministic")
	}
}

// TestHybridDegeneratesToRAS is the uniprocessor cross-check: on one CPU
// with one uncontended thread, a hybrid passage is the plain designated
// RAS passage plus one interlocked acquire of the (always free) global
// word. Its cost must therefore sit within a small factor of Table 1's
// inline RAS row — and stay below Table 1's kernel-emulation row, which
// pays a trap per passage.
func TestHybridDegeneratesToRAS(t *testing.T) {
	const iters = 400
	t1, err := Table1(&Harness{}, iters)
	if err != nil {
		t.Fatal(err)
	}
	var rasRow, emulRow float64
	for _, r := range t1 {
		switch {
		case strings.Contains(r.Mechanism, "inline"):
			rasRow = r.Micros
		case strings.Contains(r.Mechanism, "Emulation"):
			emulRow = r.Micros
		}
	}
	if rasRow == 0 || emulRow == 0 {
		t.Fatalf("Table 1 rows missing: ras=%v emul=%v", rasRow, emulRow)
	}

	cfg := SMPConfig{CPUList: []int{1}, Workers: 1, Iters: iters, Modes: []smp.Mode{smp.CC}}
	rows, err := TableSMP(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hy := findSMP(t, rows, "hybrid", 1, "cc")

	if ratio := hy.MicrosPerPassage / rasRow; ratio < 1 || ratio > 3 {
		t.Errorf("1-CPU hybrid passage %.3fus vs Table 1 inline RAS %.3fus: ratio %.2f outside [1,3]",
			hy.MicrosPerPassage, rasRow, ratio)
	}
	if hy.MicrosPerPassage >= emulRow {
		t.Errorf("1-CPU hybrid passage %.3fus not below Table 1 emulation %.3fus",
			hy.MicrosPerPassage, emulRow)
	}
	if hy.RMRPerPassage != 0 {
		t.Errorf("1-CPU hybrid RMR/passage = %v, want 0", hy.RMRPerPassage)
	}
}

func TestFormatSMP(t *testing.T) {
	rows := []SMPRow{{Lock: "hybrid", CPUs: 2, Threads: 4, Mode: "cc",
		Passages: 400, CyclesPerPassage: 123.4, MicrosPerPassage: 4.936, RMRPerPassage: 0.5}}
	out := FormatSMP(rows)
	for _, want := range []string{"hybrid", "RMR/passage", "123.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSMP output missing %q:\n%s", want, out)
		}
	}
}

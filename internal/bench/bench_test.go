package bench

import (
	"strings"
	"testing"
)

// Table 1 shape: inline < branch < reservation(b) < reservation(a) <
// emulation.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1(&Harness{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(sub string) float64 {
		for _, r := range rows {
			if strings.Contains(r.Mechanism, sub) {
				return r.Micros
			}
		}
		t.Fatalf("missing row %q", sub)
		return 0
	}
	branch := get("(branch)")
	inline := get("(inline)")
	emul := get("Kernel Emulation")
	resA := get("(a)")
	resB := get("(b)")
	if !(inline < branch) {
		t.Errorf("inline %.2f !< branch %.2f", inline, branch)
	}
	if !(branch < resB) {
		t.Errorf("branch %.2f !< reservation-b %.2f", branch, resB)
	}
	if !(resB < resA) {
		t.Errorf("reservation-b %.2f !< reservation-a %.2f", resB, resA)
	}
	if !(resA < emul) {
		t.Errorf("reservation-a %.2f !< emulation %.2f", resA, emul)
	}
	// Emulation is several times slower than RAS (paper: 4.15 vs 0.51).
	if emul < 4*inline {
		t.Errorf("emulation %.2f not >> inline %.2f", emul, inline)
	}
	for _, r := range rows {
		if r.Micros <= 0 || r.Micros > 100 {
			t.Errorf("%s: implausible %.2f us", r.Mechanism, r.Micros)
		}
	}
	t.Logf("\n%s", FormatTable1(rows))
}

// Table 2 shape: RAS beats emulation on every thread-management benchmark,
// by the largest factor on Spinlock and the smallest on ForkTest/PingPong.
func TestTable2Shape(t *testing.T) {
	rows, err := Table2(&Harness{}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RASMicros <= 0 || r.EmulMicros <= 0 {
			t.Errorf("%s: non-positive times %+v", r.Benchmark, r)
		}
		if r.RASMicros >= r.EmulMicros {
			t.Errorf("%s: RAS %.2f !< emulation %.2f", r.Benchmark, r.RASMicros, r.EmulMicros)
		}
	}
	// Spinlock improves by a larger factor than ForkTest (paper: 7.4x vs
	// 1.8x) because the heavier operation amortizes the trap cost.
	spin := rows[0]
	fork := rows[2]
	if spin.EmulMicros/spin.RASMicros <= fork.EmulMicros/fork.RASMicros {
		t.Errorf("spinlock speedup %.1f not > forktest speedup %.1f",
			spin.EmulMicros/spin.RASMicros, fork.EmulMicros/fork.RASMicros)
	}
	t.Logf("\n%s", FormatTable2(rows))
}

// Table 3 shape: every application is at least as fast under RAS; restarts
// are rare; emulation traps are plentiful; proton has the most suspensions.
func TestTable3Shape(t *testing.T) {
	s := DefaultScale()
	// Shrink the single-threaded workloads for test time; keep proton
	// large enough that its blocking handoffs dominate the suspension
	// counts, as in the paper.
	s.TextParas, s.AFSBytes, s.ParthChain, s.ProtonKB = 10, 1024, 30, 160
	rows, err := Table3(&Harness{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]T3Row{}
	for _, r := range rows {
		byName[r.Program] = r
		if r.RAS.Secs > r.Emul.Secs {
			t.Errorf("%s: RAS slower (%.4f > %.4f)", r.Program, r.RAS.Secs, r.Emul.Secs)
		}
		if r.Emul.EmulTraps == 0 {
			t.Errorf("%s: no emulation traps recorded", r.Program)
		}
		if r.RAS.EmulTraps != 0 {
			t.Errorf("%s: emulation traps under RAS", r.Program)
		}
		// "The likelihood of a thread being suspended during a restartable
		// atomic sequence is extremely small" — restarts << traps.
		if r.RAS.Restarts*10 > r.Emul.EmulTraps {
			t.Errorf("%s: restarts %d not rare vs traps %d",
				r.Program, r.RAS.Restarts, r.Emul.EmulTraps)
		}
	}
	// proton-64 has the highest suspension count (blocking handoffs).
	proton := byName["proton-64"]
	for name, r := range byName {
		if name != "proton-64" && r.RAS.Suspensions > proton.RAS.Suspensions {
			t.Errorf("%s suspensions %d exceed proton's %d",
				name, r.RAS.Suspensions, proton.RAS.Suspensions)
		}
	}
	// Threaded apps improve more than single-threaded ones (paper: 30-50%
	// vs ~3%).
	tf := byName["text-format"]
	pr := byName["proton-64"]
	tfGain := (tf.Emul.Secs - tf.RAS.Secs) / tf.Emul.Secs
	prGain := (pr.Emul.Secs - pr.RAS.Secs) / pr.Emul.Secs
	if prGain <= tfGain {
		t.Errorf("proton gain %.1f%% not > text-format gain %.1f%%",
			prGain*100, tfGain*100)
	}
	t.Logf("\n%s", FormatTable3(rows))
}

// Table 4 shape: designated = registered - linkage (approximately), and
// software beats the interlocked instruction on the architectures the
// paper calls out.
func TestTable4Shape(t *testing.T) {
	rows, err := Table4(&Harness{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	softwareWins := map[string]bool{ // interlocked > explicit registration, per paper
		"DEC CVAX": true, "Intel 486": true, "Intel 860": false,
		"Motorola 88000": true, "HP 9000/700": true,
	}
	for _, r := range rows {
		if r.Designated >= r.Registered {
			t.Errorf("%s: designated %.2f !< registered %.2f",
				r.Processor, r.Designated, r.Registered)
		}
		// The designated sequence beats the interlocked instruction on
		// every processor in the paper's Table 4 except the 68030, whose
		// interlocked access (1.1us) edges out the sequence (1.2us).
		if r.Processor == "Motorola 68030" {
			if r.Interlocked >= r.Designated {
				t.Errorf("68030: interlocked %.2f should beat designated %.2f",
					r.Interlocked, r.Designated)
			}
		} else if r.Designated >= r.Interlocked {
			t.Errorf("%s: designated %.2f !< interlocked %.2f",
				r.Processor, r.Designated, r.Interlocked)
		}
		if want, ok := softwareWins[r.Processor]; ok && want {
			if r.Registered >= r.Interlocked {
				t.Errorf("%s: registered %.2f !< interlocked %.2f",
					r.Processor, r.Registered, r.Interlocked)
			}
		}
	}
	t.Logf("\n%s", FormatTable4(rows))
}

func TestTableI860(t *testing.T) {
	rows, err := TableI860(&Harness{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §7: the hardware lock bit "offers little performance advantage over
	// software techniques" — the designated sequence should be within ~25%
	// of (or better than) lockb.
	var lockb, desig float64
	for _, r := range rows {
		if strings.Contains(r.Mechanism, "lockb") {
			lockb = r.Micros
		}
		if strings.Contains(r.Mechanism, "Designated") {
			desig = r.Micros
		}
	}
	if desig > lockb*1.25 {
		t.Errorf("designated %.2f not competitive with lockb %.2f", desig, lockb)
	}
	t.Logf("\n%s", FormatI860(rows))
}

func TestTableLamport(t *testing.T) {
	rows, err := TableLamport(&Harness{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Micros <= rows[1].Micros {
		t.Errorf("protocol (a) %.2f not slower than (b) %.2f",
			rows[0].Micros, rows[1].Micros)
	}
	t.Logf("\n%s", FormatLamport(rows))
}

func TestTableHoldups(t *testing.T) {
	s := DefaultScale()
	s.ParthChain = 40
	s.Quantum = 3000
	rows, err := TableHoldups(&Harness{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	emul, ras := rows[0], rows[1]
	// §5.3: "a thread found a Test-And-Set lock held about twice as often"
	// under kernel emulation. Require at least a clear excess.
	if emul.Holdups <= ras.Holdups {
		t.Errorf("emulation holdups %d not > RAS holdups %d", emul.Holdups, ras.Holdups)
	}
	t.Logf("\n%s", FormatHoldups(rows))
}

func TestTableAblation(t *testing.T) {
	rows, err := TableAblation(&Harness{}, 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Suspensions == 0 {
			t.Errorf("%s: no suspensions under 61-cycle quantum", r.Config)
		}
		if r.Micros <= 0 {
			t.Errorf("%s: non-positive time", r.Config)
		}
	}
	// Both designated placements must restart sequences.
	if rows[0].Restarts == 0 || rows[1].Restarts == 0 {
		t.Errorf("designated placements: restarts %d/%d", rows[0].Restarts, rows[1].Restarts)
	}
	t.Logf("\n%s", FormatAblation(rows))
}

func TestFormatters(t *testing.T) {
	if FormatTable1([]T1Row{{"x", 1}}) == "" ||
		FormatTable2([]T2Row{{"x", 1, 2}}) == "" ||
		FormatTable3([]T3Row{{Program: "x"}}) == "" ||
		FormatTable4([]T4Row{{Processor: "x"}}) == "" ||
		FormatI860([]I860Row{{"x", 1}}) == "" ||
		FormatLamport([]LamportRow{{"x", 1}}) == "" ||
		FormatHoldups([]HoldupRow{{"x", 1, 1}}) == "" ||
		FormatAblation([]AblationRow{{Config: "x"}}) == "" {
		t.Error("a formatter returned empty output")
	}
}

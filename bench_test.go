// Package repro's top-level benchmarks regenerate every table of the
// paper's evaluation via `go test -bench=.`. One benchmark per table plus
// the auxiliary studies; each reports the paper-shaped rows through b.Log
// and the headline quantity as a custom metric so -benchmem runs emit
// comparable series.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

// iters scales the microbenchmark loops with -benchtime (b.N).
func iters(b *testing.B, min int) int {
	n := b.N
	if n < min {
		n = min
	}
	return n
}

// metric sanitizes a row label into a ReportMetric unit (no whitespace).
func metric(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '(', ')', ',', '/':
			return '-'
		}
		return r
	}, s)
	return strings.Trim(s, "-")
}

// BenchmarkTable1 regenerates Table 1: software mutual exclusion
// microbenchmarks on the simulated DECstation 5000/200.
func BenchmarkTable1(b *testing.B) {
	rows, err := bench.Table1(&bench.Harness{}, iters(b, 2000))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Micros, metric(r.Mechanism, "us"))
	}
	b.Logf("\n%s", bench.FormatTable1(rows))
}

// BenchmarkTable2 regenerates Table 2: thread management operations under
// kernel emulation vs restartable atomic sequences.
func BenchmarkTable2(b *testing.B) {
	rows, err := bench.Table2(&bench.Harness{}, iters(b, 300))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.EmulMicros, metric(r.Benchmark, "emul_us"))
		b.ReportMetric(r.RASMicros, metric(r.Benchmark, "ras_us"))
	}
	b.Logf("\n%s", bench.FormatTable2(rows))
}

// BenchmarkTable3 regenerates Table 3: application performance under the
// two mechanisms, with trap/restart/suspension counts.
func BenchmarkTable3(b *testing.B) {
	s := bench.DefaultScale()
	rows, err := bench.Table3(&bench.Harness{}, s)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Emul.Secs, metric(r.Program, "emul_s"))
		b.ReportMetric(r.RAS.Secs, metric(r.Program, "ras_s"))
	}
	b.Logf("\n%s", bench.FormatTable3(rows))
}

// BenchmarkTable4 regenerates Table 4: hardware vs software Test-And-Set
// across the eight processor architectures.
func BenchmarkTable4(b *testing.B) {
	rows, err := bench.Table4(&bench.Harness{}, iters(b, 2000))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Interlocked, metric(r.Processor, "hw_us"))
		b.ReportMetric(r.Designated, metric(r.Processor, "sw_us"))
	}
	b.Logf("\n%s", bench.FormatTable4(rows))
}

// BenchmarkI860 regenerates the §7 comparison of the i860's hardware lock
// bit against software restartable sequences.
func BenchmarkI860(b *testing.B) {
	rows, err := bench.TableI860(&bench.Harness{}, iters(b, 2000))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Micros, metric(r.Mechanism, "us"))
	}
	b.Logf("\n%s", bench.FormatI860(rows))
}

// BenchmarkLamport compares the two software-reservation protocols.
func BenchmarkLamport(b *testing.B) {
	rows, err := bench.TableLamport(&bench.Harness{}, iters(b, 2000))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Micros, metric(r.Protocol, "us"))
	}
	b.Logf("\n%s", bench.FormatLamport(rows))
}

// BenchmarkHoldups regenerates §5.3's parthenon-10 lock-holdup analysis.
func BenchmarkHoldups(b *testing.B) {
	s := bench.DefaultScale()
	s.Quantum = 3000
	rows, err := bench.TableHoldups(&bench.Harness{}, s)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Holdups), metric(r.Mechanism, "holdups"))
	}
	b.Logf("\n%s", bench.FormatHoldups(rows))
}

// BenchmarkAblation regenerates the §4.1 PC-check placement study.
func BenchmarkAblation(b *testing.B) {
	rows, err := bench.TableAblation(&bench.Harness{}, 3, 150)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(r.Micros, metric(r.Config, "us"))
	}
	b.Logf("\n%s", bench.FormatAblation(rows))
}

package bench

import (
	"strings"
	"testing"
)

func TestTableChaos(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 2
	cfg.Levels = []float64{0.5, 1}
	cfg.Iters = 80
	rows, err := TableChaos(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"vmach/designated": false, "vmach/registered": false,
		"vmach/livelock-abort": false, "vmach/livelock-extend": false,
		"uniproc/ras": false, "uniproc/degrading": false,
		"recognizer/mutants": false,
	}
	for _, r := range rows {
		want[r.Scenario] = true
	}
	for sc, seen := range want {
		if !seen {
			t.Errorf("scenario %s missing from the table", sc)
		}
	}
	out := FormatChaos(rows)
	for _, s := range []string{"livelock caught", "demoted, exact", "no unsafe rollback"} {
		if !strings.Contains(out, s) {
			t.Errorf("formatted table missing %q:\n%s", s, out)
		}
	}
}

// The sweep is replayable: the same master seed yields identical rows.
// A level above 1 runs as level 1, and its rows must say so.
func TestTableChaosDeterministic(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 1
	cfg.Levels = []float64{1}
	cfg.Iters = 60
	r1, err := TableChaos(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Levels = []float64{5}
	r2, err := TableChaos(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("row %d diverged:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}
}

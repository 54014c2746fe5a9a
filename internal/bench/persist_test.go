package bench

import (
	"strings"
	"testing"
)

func testPersistConfig() PersistConfig {
	cfg := DefaultPersistConfig()
	cfg.Crashes = 6
	cfg.Workers = 2
	cfg.Iters = 3
	return cfg
}

func TestTablePersist(t *testing.T) {
	rows, err := TablePersist(&Harness{}, testPersistConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"vmach/crash-sweep":        false,
		"vmach/underflush-control": false,
		"uniproc/crash-sweep":      false,
		"mcheck/flush-boundaries":  false,
	}
	for _, r := range rows {
		want[r.Scenario] = true
		switch r.Scenario {
		case "vmach/crash-sweep", "uniproc/crash-sweep":
			if r.MaxLoss > 1 {
				t.Errorf("%s: max loss %d exceeds the protocol bound of 1", r.Scenario, r.MaxLoss)
			}
		case "vmach/underflush-control":
			if r.MaxLoss <= 1 {
				t.Errorf("underflush control lost only %d increments; the planted bug is gone", r.MaxLoss)
			}
		case "mcheck/flush-boundaries":
			if r.Crashes == 0 {
				t.Error("flush-boundary walk explored zero crash points")
			}
		}
	}
	for sc, seen := range want {
		if !seen {
			t.Errorf("scenario %s missing from the table", sc)
		}
	}
	out := FormatPersist(rows)
	for _, s := range []string{"loss <= 1", "loss detected (control)", "zero violations"} {
		if !strings.Contains(out, s) {
			t.Errorf("formatted table missing %q:\n%s", s, out)
		}
	}
}

// The persistence table is replayable: the same master seed yields
// identical rows.
func TestTablePersistDeterministic(t *testing.T) {
	cfg := testPersistConfig()
	cfg.Crashes = 3
	r1, err := TablePersist(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TablePersist(&Harness{}, cfg)
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

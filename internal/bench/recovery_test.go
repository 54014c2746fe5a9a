package bench

import (
	"strings"
	"testing"
)

func testRecoveryConfig(t *testing.T) RecoveryConfig {
	cfg := DefaultRecoveryConfig()
	cfg.Schedules = 30
	cfg.Crashes = 3
	cfg.Iters = 20
	if testing.Short() {
		cfg.Schedules = 8
		cfg.Crashes = 1
	}
	return cfg
}

func TestTableRecovery(t *testing.T) {
	rows, err := TableRecovery(&Harness{}, testRecoveryConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"uniproc/kill-sweep":            false,
		"vmach/kill-sweep/registration": false,
		"vmach/kill-sweep/designated":   false,
		"vmach/checkpoint-replay":       false,
		"vmach/crash-restore":           false,
	}
	var kills, repairs uint64
	for _, r := range rows {
		want[r.Scenario] = true
		kills += r.Kills
		repairs += r.Repairs
	}
	for sc, seen := range want {
		if !seen {
			t.Errorf("scenario %s missing from the table", sc)
		}
	}
	if kills == 0 || repairs == 0 {
		t.Errorf("sweep was toothless: %d kills, %d repairs", kills, repairs)
	}
	out := FormatRecovery(rows)
	for _, s := range []string{"bit-identical replay", "uncrashed state", "ME held"} {
		if !strings.Contains(out, s) {
			t.Errorf("formatted table missing %q:\n%s", s, out)
		}
	}
}

// The recovery table is replayable: the same master seed yields identical
// rows.
func TestTableRecoveryDeterministic(t *testing.T) {
	cfg := testRecoveryConfig(t)
	cfg.Schedules = 10
	r1, err := TableRecovery(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TableRecovery(&Harness{}, cfg)
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

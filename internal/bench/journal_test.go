package bench

import (
	"strings"
	"testing"
)

func testJournalConfig(t *testing.T) JournalConfig {
	cfg := DefaultJournalConfig()
	cfg.Crashes = 6
	cfg.Target = 4
	cfg.Ops = 6
	if testing.Short() {
		cfg.Crashes = 2
	}
	return cfg
}

func TestTableJournal(t *testing.T) {
	rows, err := TableJournal(&Harness{}, testJournalConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Both substrates must report both logging modes' passage costs, and
	// the cost asymmetry must point the right way: undo pays one more
	// fence per transaction than redo, so its persist-op count is higher.
	persistOps := map[string]uint64{}
	want := map[string]bool{
		"vmach/passage/redo":             false,
		"vmach/passage/undo":             false,
		"vmach/torn-sweep/redo":          false,
		"vmach/torn-sweep/undo":          false,
		"uniproc/stack-passage/redo":     false,
		"uniproc/stack-passage/undo":     false,
		"uniproc/queue-passage/redo":     false,
		"uniproc/queue-passage/undo":     false,
		"uniproc/stack-torn-sweep/redo":  false,
		"uniproc/stack-torn-sweep/undo":  false,
		"memfs/journal-replay/":          false,
		"mcheck/journal-boundaries/redo": false,
	}
	for _, r := range rows {
		key := r.Scenario + "/" + r.Mode
		want[key] = true
		if strings.Contains(r.Scenario, "passage") {
			if r.Cycles == 0 || r.PersistOps == 0 {
				t.Errorf("%s: passage row has no cost data: %+v", key, r)
			}
			persistOps[key] = r.PersistOps
		}
		if r.Scenario == "memfs/journal-replay" && r.Repairs == 0 {
			t.Errorf("memfs replay never replayed a record: %+v", r)
		}
		if r.Scenario == "mcheck/journal-boundaries" && r.Crashes == 0 {
			t.Error("journal boundary walk explored zero crash points")
		}
	}
	for sc, seen := range want {
		if !seen {
			t.Errorf("scenario %s missing from the table", sc)
		}
	}
	for _, pair := range [][2]string{
		{"vmach/passage/undo", "vmach/passage/redo"},
		{"uniproc/stack-passage/undo", "uniproc/stack-passage/redo"},
		{"uniproc/queue-passage/undo", "uniproc/queue-passage/redo"},
	} {
		if persistOps[pair[0]] <= persistOps[pair[1]] {
			t.Errorf("%s persist ops (%d) should exceed %s (%d): undo pays the extra commit fence",
				pair[0], persistOps[pair[0]], pair[1], persistOps[pair[1]])
		}
	}
	out := FormatJournal(rows)
	for _, s := range []string{"exact recovery", "all-or-nothing recovery", "zero violations"} {
		if !strings.Contains(out, s) {
			t.Errorf("formatted table missing %q:\n%s", s, out)
		}
	}
}

// The journaling table is replayable: the same master seed yields
// identical rows.
func TestTableJournalDeterministic(t *testing.T) {
	cfg := testJournalConfig(t)
	cfg.Crashes = 3
	r1, err := TableJournal(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TableJournal(&Harness{}, cfg)
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

package bench

import (
	"testing"

	"repro/internal/vmach/smp"
)

// TestTableRMR runs a reduced sweep and checks the headline property:
// the queue locks' remote references per passage stay flat in CC mode
// while the spinlock's grow with the contender count.
func TestTableRMR(t *testing.T) {
	cfg := RMRConfig{
		CPUList: []int{1, 2, 8},
		Iters:   20,
		Modes:   []smp.Mode{smp.CC},
		Seed:    7,
		Kills:   8,
	}
	rows, err := TableRMR(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(lock string, cpus int) RMRRow {
		for _, r := range rows {
			if r.Lock == lock && r.CPUs == cpus && r.Kills == 0 {
				return r
			}
		}
		t.Fatalf("no row for %s/%d", lock, cpus)
		return RMRRow{}
	}
	mcs2, mcs8 := cell("mcs", 2), cell("mcs", 8)
	spin2, spin8 := cell("spinlock", 2), cell("spinlock", 8)
	if mcs8.RMRPerPassage > 3*mcs2.RMRPerPassage+8 {
		t.Errorf("MCS RMR/passage grew with contention: %.1f at 8 cpus vs %.1f at 2",
			mcs8.RMRPerPassage, mcs2.RMRPerPassage)
	}
	if spin8.RMRPerPassage < 2*spin2.RMRPerPassage {
		t.Errorf("spinlock RMR/passage did not grow: %.1f at 8 cpus vs %.1f at 2",
			spin8.RMRPerPassage, spin2.RMRPerPassage)
	}
	if spin8.RMRPerPassage < 1.5*mcs8.RMRPerPassage {
		t.Errorf("spinlock (%.1f) should dominate MCS (%.1f) at 8 cpus",
			spin8.RMRPerPassage, mcs8.RMRPerPassage)
	}
	for _, r := range rows {
		if r.Passages == 0 {
			t.Errorf("%s/%d/%s: no passages", r.Lock, r.CPUs, r.Mode)
		}
		if r.Kills == 0 && r.LatP50 == 0 {
			t.Errorf("%s/%d/%s: empty latency histogram", r.Lock, r.CPUs, r.Mode)
		}
	}
	// The recovery row must have seen repairs across its schedules.
	var kill *RMRRow
	for i := range rows {
		if rows[i].Kills > 0 {
			kill = &rows[i]
		}
	}
	if kill == nil {
		t.Fatal("no recovery section row")
	}
	if kill.Repairs+kill.Splices+kill.Scans == 0 {
		t.Errorf("recovery row exercised no repair machinery: %+v", *kill)
	}
	out := FormatRMR(rows)
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Errorf("FormatRMR output malformed")
	}
}

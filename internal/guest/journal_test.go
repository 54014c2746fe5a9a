package guest

import (
	"testing"

	"repro/internal/isa"
)

// The journal recovery rule: a record commits iff its checksum matches
// and its sequence is the applied one plus one.
func TestJournalRecoveryRule(t *testing.T) {
	whole := func(seq, xa, xb, applied isa.Word) JournalRecord {
		return JournalRecord{Seq: seq, XA: xa, XB: xb, Ck: journalCksum(seq, xa, xb), Applied: applied}
	}
	torn := whole(4, 4, 4, 3)
	torn.Ck ^= 1
	for _, c := range []struct {
		name    string
		r       JournalRecord
		commits bool
	}{
		{"in flight", whole(4, 4, 4, 3), true},
		{"already applied", whole(4, 4, 4, 4), false},
		{"blank image", JournalRecord{}, false},
		{"torn", torn, false},
		{"spliced head onto tail", JournalRecord{Seq: 4, XA: 4, XB: 3, Ck: journalCksum(3, 3, 3), Applied: 3}, false},
	} {
		if got := c.r.Commits(); got != c.commits {
			t.Errorf("%s: Commits = %v, want %v", c.name, got, c.commits)
		}
		want := [2]isa.Word{1, 2} // an uncommitted record leaves the words alone
		if c.commits {
			want = [2]isa.Word{c.r.XA, c.r.XB}
		}
		if a, b := c.r.Recover(1, 2); [2]isa.Word{a, b} != want {
			t.Errorf("%s: Recover = %d %d, want %v", c.name, a, b, want)
		}
	}
	for _, mode := range []string{"redo", "undo", "nofence"} {
		if _, ok := JournalSource(mode, 3); !ok {
			t.Errorf("JournalSource(%q) refused", mode)
		}
	}
	if _, ok := JournalSource("fenceless", 3); ok {
		t.Error("JournalSource accepted an unknown mode")
	}
}

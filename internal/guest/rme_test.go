package guest

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// lockWord encodes a recoverable lock word: owner tid (-1 free) and epoch.
func lockWord(tid int, epoch isa.Word) isa.Word { return epoch<<16 | isa.Word(tid+1) }

func TestLockWordDecode(t *testing.T) {
	for _, c := range []struct {
		w     isa.Word
		owner int
		epoch isa.Word
	}{
		{0, -1, 0},
		{lockWord(0, 0), 0, 0},
		{lockWord(-1, 7), -1, 7},
		{lockWord(3, 0xFFFF), 3, 0xFFFF},
	} {
		if o, e := LockOwner(c.w), LockEpoch(c.w); o != c.owner || e != c.epoch {
			t.Errorf("%#x: owner %d epoch %d, want %d %d", c.w, o, e, c.owner, c.epoch)
		}
	}
}

// An audit names a held lock's owner by thread ID, not by the owner
// field (ID + 1) the word stores.
func TestHeldLockNamesThread(t *testing.T) {
	if got, want := HeldLock(lockWord(2, 1)), "lock still owned by thread 2"; got != want {
		t.Errorf("HeldLock = %q, want %q", got, want)
	}
	if got := HeldLock(lockWord(-1, 5)); got != "" {
		t.Errorf("free word: HeldLock = %q, want \"\"", got)
	}
}

// Every lock-word transition the guests make is legal, and every
// illegal one names the rule it breaks: the branches no planted-bug
// guest reaches.
func TestLockStoreRules(t *testing.T) {
	const live, dead = true, false
	for _, c := range []struct {
		name       string
		me         int
		old, new   isa.Word
		ownerAlive bool
		repair     bool
		want       []string // "kind: message prefix", in order
	}{
		{"acquire", 1, lockWord(-1, 0), lockWord(1, 0), dead, false, nil},
		{"acquire keeps a bumped epoch", 1, lockWord(-1, 3), lockWord(1, 3), dead, false, nil},
		{"release", 1, lockWord(1, 2), lockWord(-1, 2), live, false, nil},
		{"owner release where repair is admitted", 1, lockWord(1, 2), lockWord(-1, 2), live, true, nil},
		{"steal from the dead", 2, lockWord(1, 0), lockWord(2, 1), dead, false, nil},
		{"admitted boot repair", 0, lockWord(1, 4), lockWord(-1, 5), dead, true, nil},
		{"free to free", 1, lockWord(-1, 0), lockWord(-1, 0), dead, false, nil},

		{"acquire moves the epoch", 1, lockWord(-1, 0), lockWord(1, 1), dead, false,
			[]string{"rme: bad acquire"}},
		{"acquire names another thread", 1, lockWord(-1, 0), lockWord(2, 0), dead, false,
			[]string{"rme: bad acquire"}},
		{"acquire between threads", -1, lockWord(-1, 0), lockWord(0, 0), dead, false,
			[]string{"rme: bad acquire"}},
		{"release by a non-owner", 2, lockWord(1, 0), lockWord(-1, 0), live, false,
			[]string{"rme: bad release"}},
		{"release moves the epoch", 1, lockWord(1, 0), lockWord(-1, 1), live, false,
			[]string{"rme: bad release"}},
		{"steal from a live owner", 2, lockWord(1, 0), lockWord(2, 1), live, false,
			[]string{"mutual-exclusion: t2 stole the lock from live t1"}},
		{"steal without epoch+1", 2, lockWord(1, 0), lockWord(2, 0), dead, false,
			[]string{"rme: bad steal"}},
		{"steal naming another thread", 2, lockWord(1, 0), lockWord(3, 1), dead, false,
			[]string{"rme: bad steal"}},
		{"malformed steal from a live owner", 2, lockWord(1, 0), lockWord(2, 0), live, false,
			[]string{"rme: bad steal", "mutual-exclusion: t2 stole"}},
		{"thread-0 repair not admitted", 0, lockWord(1, 0), lockWord(-1, 1), dead, false,
			[]string{"rme: bad release 0x"}},
		{"admitted repair of a live owner", 0, lockWord(1, 0), lockWord(-1, 1), live, true,
			[]string{"rme: bad release/repair"}},
		{"admitted repair by a worker", 2, lockWord(1, 0), lockWord(-1, 1), dead, true,
			[]string{"rme: bad release/repair"}},
		{"admitted repair without the epoch bump", 0, lockWord(1, 0), lockWord(-1, 0), dead, true,
			[]string{"rme: bad release/repair"}},
	} {
		checkBreaches(t, c.name, LockStore(c.me, c.old, c.new, c.ownerAlive, c.repair), c.want)
	}
}

func TestCounterStoreRules(t *testing.T) {
	held := lockWord(1, 2)
	for _, c := range []struct {
		name     string
		me       int
		lock     isa.Word
		old, new isa.Word
		want     []string
	}{
		{"increment under the lock", 1, held, 5, 6, nil},
		{"increment by a non-owner", 2, held, 5, 6,
			[]string{"mutual-exclusion: t2 incremented 5->6 with lock 0x20002"}},
		{"increment with the lock free", 1, lockWord(-1, 2), 5, 6,
			[]string{"mutual-exclusion: t1 incremented"}},
		{"store not by +1", 1, held, 5, 7,
			[]string{"mutual-exclusion: t1 incremented 5->7"}},
		{"decrement", 1, held, 5, 4,
			[]string{"mutual-exclusion: t1 incremented 5->4"}},
	} {
		checkBreaches(t, c.name, CounterStore(c.me, c.lock, c.old, c.new), c.want)
	}
}

func checkBreaches(t *testing.T, name string, got []RMEBreach, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: breaches %v, want %d matching %q", name, got, len(want), want)
		return
	}
	for i, b := range got {
		if s := b.Kind + ": " + b.Msg; !strings.HasPrefix(s, want[i]) {
			t.Errorf("%s: breach %d is %q, want prefix %q", name, i, s, want[i])
		}
	}
}

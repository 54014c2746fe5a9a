package journal

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/uniproc"
)

const arenaWords = 4096

// script is the op sequence the crash tests drive; each op mutates and
// each leaves the tree in a distinct state, so prefix identification is
// unambiguous.
type op struct {
	kind Kind
	path string
	data string
}

var script = []op{
	{OpMkdir, "/d", ""},
	{OpCreate, "/d/a", ""},
	{OpWriteFile, "/d/a", "alpha"},
	{OpCreate, "/d/b", ""},
	{OpAppend, "/d/b", "beta-1"},
	{OpAppend, "/d/b", "beta-2"},
	{OpWriteFile, "/d/a", "alpha-rewritten"},
	{OpRemove, "/d/a", ""},
	{OpMkdir, "/d/sub", ""},
	{OpCreate, "/d/sub/c", ""},
	{OpWriteFile, "/d/sub/c", "gamma"},
}

// tornCrash is a volatile crash, torn when torn is set.
func tornCrash(torn bool) chaos.Action {
	if torn {
		return chaos.Action{Crash: chaos.CrashTorn}
	}
	return chaos.Action{Crash: chaos.CrashVolatile}
}

func doOp(e *uniproc.Env, j *JFS, o op) error {
	switch o.kind {
	case OpMkdir:
		return j.Mkdir(e, o.path)
	case OpCreate:
		return j.Create(e, o.path)
	case OpWriteFile:
		return j.WriteFile(e, o.path, []byte(o.data))
	case OpAppend:
		return j.Append(e, o.path, []byte(o.data))
	case OpRemove:
		return j.Remove(e, o.path)
	}
	panic("unknown op")
}

// dump flattens the tree to a canonical string for state comparison.
func dump(e *uniproc.Env, j *JFS) string {
	var sb strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		names, err := j.ReadDir(e, dir)
		if err != nil {
			panic(err)
		}
		sort.Strings(names)
		for _, name := range names {
			p := dir + "/" + name
			if dir == "/" {
				p = "/" + name
			}
			isDir, _, err := j.Stat(e, p)
			if err != nil {
				panic(err)
			}
			if isDir {
				fmt.Fprintf(&sb, "%s/\n", p)
				walk(p)
			} else {
				data, _ := j.ReadFile(e, p)
				fmt.Fprintf(&sb, "%s=%q\n", p, data)
			}
		}
	}
	walk("/")
	return sb.String()
}

// prefixStates returns dump() after each prefix of script (index p =
// state after the first p ops), built on a fault-free processor.
func prefixStates(t *testing.T) []string {
	t.Helper()
	states := make([]string, len(script)+1)
	arena := make([]uniproc.Word, arenaWords)
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		states[0] = dump(e, j)
		for i, o := range script {
			if err := doOp(e, j, o); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
			states[i+1] = dump(e, j)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return states
}

// mountAndDump remounts the arena on a fresh fault-free processor and
// returns the rebuilt tree's dump.
func mountAndDump(t *testing.T, arena []uniproc.Word, opt Options) string {
	t.Helper()
	var state string
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, opt)
		if err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		state = dump(e, j)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return state
}

// The log round-trips through a clean remount: the rebuilt tree is
// identical, and the log is positioned to keep appending.
func TestMountRebuildsTree(t *testing.T) {
	arena := make([]uniproc.Word, arenaWords)
	reg := obs.NewRegistry()
	var before string
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{Metrics: reg})
		if err != nil {
			t.Error(err)
			return
		}
		for _, o := range script {
			if err := doOp(e, j, o); err != nil {
				t.Error(err)
				return
			}
		}
		before = dump(e, j)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("journal_records_written"); got != uint64(len(script)) {
		t.Errorf("records written = %d, want %d", got, len(script))
	}

	p2 := uniproc.New(uniproc.Config{})
	p2.EnablePersistence()
	reg2 := obs.NewRegistry()
	p2.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{Metrics: reg2})
		if err != nil {
			t.Error(err)
			return
		}
		if got := dump(e, j); got != before {
			t.Errorf("remounted tree:\n%s\nwant:\n%s", got, before)
		}
		// The remounted log keeps appending where the old one stopped.
		if err := j.Create(e, "/d/post-remount"); err != nil {
			t.Error(err)
		}
	})
	if err := p2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg2.CounterValue("journal_records_replayed"); got != uint64(len(script)) {
		t.Errorf("records replayed = %d, want %d", got, len(script))
	}
}

// Crash at EVERY persist boundary, clean and torn: the remounted tree
// must equal some prefix of the script — at least every operation that
// returned, never a partial operation, never reordered.
func TestCrashAtEveryPersistBoundaryRecoversPrefix(t *testing.T) {
	states := prefixStates(t)

	// Reference run to size the ordinal space.
	ref := uniproc.New(uniproc.Config{})
	ref.EnablePersistence()
	refArena := make([]uniproc.Word, arenaWords)
	ref.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), refArena, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		for _, o := range script {
			doOp(e, j, o)
		}
	})
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	total := ref.PersistOps()
	if total == 0 {
		t.Fatal("no persist ops in reference run")
	}

	for _, torn := range []bool{false, true} {
		for c := uint64(1); c <= total; c++ {
			arena := make([]uniproc.Word, arenaWords)
			returned := 0
			p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
				Point:  chaos.PointPersist,
				N:      c,
				Action: tornCrash(torn),
			}})
			p.EnablePersistence()
			p.Go("main", func(e *uniproc.Env) {
				j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				for _, o := range script {
					if err := doOp(e, j, o); err != nil {
						t.Errorf("crash %d: op error %v", c, err)
						return
					}
					returned++
				}
			})
			if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
				t.Fatalf("crash %d (torn=%v): Run = %v, want ErrMachineCrash", c, torn, err)
			}
			got := mountAndDump(t, arena, Options{})
			match := -1
			for i, s := range states {
				if got == s {
					match = i
					break
				}
			}
			if match < 0 {
				t.Fatalf("crash %d (torn=%v): recovered state matches no script prefix:\n%s", c, torn, got)
			}
			if match < returned {
				t.Fatalf("crash %d (torn=%v): %d ops returned but recovery rebuilt only %d — a committed op was lost",
					c, torn, returned, match)
			}
		}
	}
}

// The planted missing-fence bug is observable: an operation that
// returned is lost by a clean crash at a later boundary, exactly the
// violation the model checker must catch.
func TestSkipFenceLosesCommittedOp(t *testing.T) {
	states := prefixStates(t)
	lost := false
	for c := uint64(1); c < 64 && !lost; c++ {
		arena := make([]uniproc.Word, arenaWords)
		returned := 0
		p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
			Point:  chaos.PointPersist,
			N:      c,
			Action: chaos.Action{Crash: chaos.CrashVolatile},
		}})
		p.EnablePersistence()
		p.Go("main", func(e *uniproc.Env) {
			j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{SkipFence: true})
			if err != nil {
				t.Error(err)
				return
			}
			for _, o := range script {
				if err := doOp(e, j, o); err != nil {
					return
				}
				returned++
			}
		})
		if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
			break // ran to completion: no boundary left to crash at
		}
		got := mountAndDump(t, arena, Options{})
		match := -1
		for i, s := range states {
			if got == s {
				match = i
				break
			}
		}
		if match < 0 || match < returned {
			lost = true
		}
	}
	if !lost {
		t.Fatal("SkipFence never lost a committed op — the planted bug is invisible")
	}
}

// A torn crash mid-append leaves a partial record; Mount detects it via
// the checksum, zeroes the tail durably, counts the discard, and the log
// accepts new appends over the reclaimed space.
func TestTornTailDetectedAndZeroed(t *testing.T) {
	arena := make([]uniproc.Word, arenaWords)
	// Write two records; crash torn during the second record's flushes.
	// Ordinals: record 1 = flush x N, fence; pick a flush ordinal well
	// inside record 2's flush run.
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		l, _, err := Mount(e, arena, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := l.Append(e, OpCreate, "/first", nil); err != nil {
			t.Error(err)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	opsRec1 := p.PersistOps()

	tornSeen := false
	for c := opsRec1 + 1; c <= opsRec1+8; c++ {
		arena := make([]uniproc.Word, arenaWords)
		p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
			Point:  chaos.PointPersist,
			N:      c,
			Action: chaos.Action{Crash: chaos.CrashTorn},
		}})
		p.EnablePersistence()
		p.Go("main", func(e *uniproc.Env) {
			l, _, err := Mount(e, arena, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			l.Append(e, OpCreate, "/first", nil)
			l.Append(e, OpWriteFile, "/first", bytes.Repeat([]byte("x"), 40))
			t.Errorf("crash %d did not fire", c)
		})
		if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
			t.Fatalf("crash %d: Run = %v, want ErrMachineCrash", c, err)
		}

		reg := obs.NewRegistry()
		p2 := uniproc.New(uniproc.Config{})
		p2.EnablePersistence()
		p2.Go("main", func(e *uniproc.Env) {
			l, recs, err := Mount(e, arena, Options{Metrics: reg})
			if err != nil {
				t.Error(err)
				return
			}
			if len(recs) != 1 || recs[0].Kind != OpCreate || recs[0].Path != "/first" {
				t.Errorf("crash %d: replayed %+v, want only the fenced record", c, recs)
			}
			// The reclaimed space accepts a fresh record with the right seq.
			seq, err := l.Append(e, OpCreate, "/second", nil)
			if err != nil || seq != 2 {
				t.Errorf("crash %d: append after torn recovery = seq %d, %v", c, seq, err)
			}
		})
		if err := p2.Run(); err != nil {
			t.Fatal(err)
		}
		if reg.CounterValue("journal_torn_words_discarded") > 0 {
			tornSeen = true
		}
	}
	if !tornSeen {
		t.Error("no torn crash in the sweep left a partial record to discard")
	}
}

// A full log refuses the append before anything is logged or applied.
func TestLogFullRefusesCleanly(t *testing.T) {
	arena := make([]uniproc.Word, 16) // room for barely one small record
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		if err := j.Mkdir(e, "/d"); err != nil {
			t.Errorf("first mkdir: %v", err)
		}
		err = j.Create(e, "/d/a-name-too-long-to-fit-in-the-arena")
		if !errors.Is(err, ErrFull) {
			t.Errorf("overfull append = %v, want ErrFull", err)
		}
		if _, _, err := j.Stat(e, "/d/a-name-too-long-to-fit-in-the-arena"); err == nil {
			t.Error("refused op was applied anyway")
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

// Validation failures surface the memfs error and log nothing.
func TestInvalidOpsNotLogged(t *testing.T) {
	arena := make([]uniproc.Word, arenaWords)
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		j, err := MountFS(e, cthreads.New(core.NewRAS()), arena, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		cases := []struct {
			err  error
			want error
		}{
			{j.Mkdir(e, "/missing/d"), memfs.ErrNotFound},
			{j.WriteFile(e, "/nope", []byte("x")), memfs.ErrNotFound},
			{j.Remove(e, "/nope"), memfs.ErrNotFound},
			{j.Mkdir(e, "bad"), memfs.ErrBadPath},
			{j.Create(e, "/a/../b"), memfs.ErrBadPath},
		}
		for i, c := range cases {
			if !errors.Is(c.err, c.want) {
				t.Errorf("case %d: err = %v, want %v", i, c.err, c.want)
			}
		}
		if err := j.Mkdir(e, "/d"); err != nil {
			t.Fatal(err)
		}
		if err := j.Mkdir(e, "/d"); !errors.Is(err, memfs.ErrExists) {
			t.Errorf("double mkdir = %v, want ErrExists", err)
		}
		if err := j.Remove(e, "/d"); err != nil {
			t.Fatal(err)
		}
		if j.Log().Seq() != 2 {
			t.Errorf("seq = %d after 2 valid ops, want 2", j.Log().Seq())
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

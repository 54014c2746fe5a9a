package mcheck

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/guest"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/uniproc"
)

// The journaling model family: the crash-consistent structures this
// layer adds — the guest WAL transaction (vmach), the memfs journal
// (uniproc), and the persistent stack/queue (uniproc) — each crashed
// exhaustively at every flush/fence boundary, clean and torn, including
// crashes that land inside recovery itself (K=2). The ordinal space
// everywhere is retired persist operations, accumulated across reboots,
// exactly like the persist model.

// ---------------------------------------------------------------------
// vmach: guest.JournalProgram under crashes at every persist boundary.

// journalModel runs the guest journal on a rebootInstance: a crash
// discards the volatile tier (torn or whole, per the decision's action)
// and audits the surviving NVM image for recoverable consistency.
func journalModel(p map[string]string) (Model, error) {
	target, err := paramInt(p, "target")
	if err != nil {
		return nil, err
	}
	src, ok := guest.JournalSource(p["mode"], target)
	if !ok {
		return nil, fmt.Errorf("mcheck: journal: unknown mode %q", p["mode"])
	}
	primary, err := tornPrimary(p, "journal")
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("mcheck: journal: %v", err)
	}
	va, vb := prog.MustSymbol("va"), prog.MustSymbol("vb")
	// checkNVM applies the guest's own recovery rule to the NVM image and
	// demands the recovered state is consistent: va == vb, within the
	// target. This is the journal's core invariant — every reachable NVM
	// image is one a reboot repairs.
	checkNVM := func(in *rebootInstance, where string) {
		mem := in.mem()
		a, b := guest.ReadJournal(mem.NVPeek, prog).Recover(mem.NVPeek(va), mem.NVPeek(vb))
		if a != b {
			in.vio.add("journal-consistency",
				"%s: recovered state va=%d vb=%d — the words diverged and no durable record repairs them", where, a, b)
		}
		if a > uint32(target) {
			in.vio.add("journal-consistency", "%s: recovered va=%d exceeds target %d", where, a, target)
		}
	}
	return &model{name: "journal", params: p, primary: primary, new: func(ds []Decision, opt Options) (Instance, error) {
		for _, d := range ds {
			if d.Act != ActCrashVolatile && d.Act != ActCrashTorn {
				return nil, fmt.Errorf("mcheck: journal: only crash decisions apply (got %s)", d.Act)
			}
		}
		in := newRebootInstance(prog, ds, opt)
		// A crash discards the volatile tier (torn write-backs when the
		// decision says so); audit the NVM image left behind, and count
		// it a repair when it holds a committed record to roll.
		in.crashed = func(d Decision) {
			checkNVM(in, fmt.Sprintf("crash at persist op %d", d.At))
			if guest.ReadJournal(in.mem().NVPeek, prog).Commits() {
				in.out.Repairs++
			}
		}
		in.finish = func() {
			a, b := uint32(in.mem().Peek(va)), uint32(in.mem().Peek(vb))
			if a != uint32(target) || b != uint32(target) {
				in.vio.add("journal-consistency", "final state va=%d vb=%d after boot %d, want both %d",
					a, b, in.next+1, target)
			}
			checkNVM(in, "final NVM image")
		}
		in.boot()
		return in, nil
	}}, nil
}

// ---------------------------------------------------------------------
// uniproc: the memfs journal and the persistent structures. Replay-only
// models (the uniproc runtime runs whole schedules), with the crash
// decisions rendered as a chaos injector at PointPersist. A decision
// ordinal is global across reboots: each boot's injector is offset by
// the persist ops earlier boots retired (chaos.Offset).

// rebootUni is the uniproc crash-family run: boot after boot over the
// arenas body closes over, each on a fresh persistent processor whose
// injector is offset past the persist ops earlier boots retired. body
// spawns one boot's threads and returns the checks for a boot that ends
// without crashing. A crash reboots; any other end is classified and
// checked, and ends the run. It returns the persist ops retired across
// all boots, the run's cursor.
func rebootUni(ds []Decision, opt Options, vio *violations, out *Outcome, body func(proc *uniproc.Processor, boot int) (check func())) uint64 {
	inj := newInjector(chaos.PointPersist, ds)
	var cum uint64
	for boot := 0; boot < len(ds)+2; boot++ {
		proc := uniproc.New(uniproc.Config{
			Quantum:   modelQuantum,
			MaxCycles: modelBudget,
			Faults:    chaos.Offset(inj, cum),
		})
		proc.Tracer = opt.Tracer
		proc.EnablePersistence()
		check := body(proc, boot)
		err := opt.run(proc, proc.Run)
		cum += proc.PersistOps()
		if errors.Is(err, uniproc.ErrMachineCrash) {
			out.Crashes++
			continue
		}
		vio.terminal(err, -1)
		check()
		return cum
	}
	vio.add("stuck", "crash decisions kept firing after %d boots", len(ds)+2)
	return cum
}

// tornPrimary parses a crash-family model's torn=0|1 parameter into the
// crash action its explorer enumerates.
func tornPrimary(p map[string]string, model string) (Action, error) {
	switch p["torn"] {
	case "0":
		return ActCrashVolatile, nil
	case "1":
		return ActCrashTorn, nil
	}
	return 0, fmt.Errorf("mcheck: %s: torn must be 0 or 1, got %q", model, p["torn"])
}

// jfsScript is the memfs-journal workload at appends=0: every operation
// kind the journal logs, with a remove so replay must handle deletion
// too.
var jfsScript = []journal.Record{
	{Kind: journal.OpMkdir, Path: "/d"},
	{Kind: journal.OpCreate, Path: "/d/a"},
	{Kind: journal.OpWriteFile, Path: "/d/a", Data: []byte("alpha")},
	{Kind: journal.OpAppend, Path: "/d/a", Data: []byte("-beta")},
	{Kind: journal.OpCreate, Path: "/d/b"},
	{Kind: journal.OpRemove, Path: "/d/b"},
}

// jfsAppends is the workload at appends=n, E24's memfs sweep: create
// /log, then n one-byte appends.
func jfsAppends(n int) []journal.Record {
	script := []journal.Record{{Kind: journal.OpCreate, Path: "/log"}}
	for range n {
		script = append(script, journal.Record{Kind: journal.OpAppend, Path: "/log", Data: []byte{'x'}})
	}
	return script
}

const jfsArenaWords = 1024

// memfsJournalModel crashes the JFS script workload at every persist
// boundary. The invariant is the write-ahead contract: after any crash,
// the remounted tree equals a PREFIX of the script — all-or-nothing per
// operation, at least every operation that returned, never reordered.
// Every completed mount is also audited (journal-tail): every arena word
// past the log's head is zero in both tiers, the invariant that lets a
// mount zero one record's debris instead of the arena. variant=nofence
// mounts with the planted Options.SkipFence bug, which this model must
// catch as journal-loss; variant=zeroforward plants
// Options.ZeroForward, which a torn append followed by a torn crash
// inside the next mount turns into journal-tail (K=2).
func memfsJournalModel(p map[string]string) (Model, error) {
	var jopt journal.Options
	switch p["variant"] {
	case "fenced":
	case "nofence":
		jopt.SkipFence = true
	case "zeroforward":
		jopt.ZeroForward = true
	default:
		return nil, fmt.Errorf("mcheck: memfs-journal: unknown variant %q", p["variant"])
	}
	primary, err := tornPrimary(p, "memfs-journal")
	if err != nil {
		return nil, err
	}
	script := jfsScript
	if n, err := strconv.Atoi(p["appends"]); err != nil || n < 0 {
		return nil, fmt.Errorf("mcheck: memfs-journal: appends must be a count, got %q", p["appends"])
	} else if n > 0 {
		script = jfsAppends(n)
	}
	// The reference states are fault-free and shared by every instance.
	states, err := jfsPrefixStates(script)
	if err != nil {
		return nil, fmt.Errorf("mcheck: memfs-journal: %v", err)
	}
	return &model{name: "memfs-journal", params: p, primary: primary, new: uniNew(func(ds []Decision, opt Options, vio *violations, out *Outcome) uint64 {
		arena := make([]uniproc.Word, jfsArenaWords)
		mopt := jopt
		mopt.Metrics = obs.NewRegistry()
		returned := 0
		cursor := rebootUni(ds, opt, vio, out, func(proc *uniproc.Processor, boot int) func() {
			var mountErr error
			var state string
			proc.Go("main", func(e *uniproc.Env) {
				j, err := journal.MountFS(e, cthreads.New(core.NewRAS()), arena, mopt)
				if err != nil {
					mountErr = err
					return
				}
				if err := j.Log().CheckTail(proc); err != nil {
					vio.add("journal-tail", "boot %d: %v", boot+1, err)
				}
				if boot == 0 {
					for _, r := range script {
						if err := j.Do(e, r); err != nil {
							mountErr = fmt.Errorf("op %d: %w", returned, err)
							return
						}
						returned++
					}
				}
				state = jfsDump(e, j)
			})
			return func() {
				if mountErr != nil {
					vio.add("recovery", "boot %d: %v", boot+1, mountErr)
					return
				}
				// A boot that ran to completion: on the first boot the
				// state is the full script; on a reboot, whatever replay
				// rebuilt. Distinct prefixes can share a tree (an op and
				// its inverse cancel), so the check is against the two
				// admissible states directly, not a search for a
				// matching prefix: every returned op must be present,
				// plus at most the one op in flight at the crash.
				okA := state == states[returned]
				okB := returned+1 < len(states) && state == states[returned+1]
				if !okA && !okB {
					vio.add("journal-loss",
						"remounted tree is not the state after the %d returned ops (or %d):\n%s",
						returned, returned+1, state)
				}
			}
		})
		out.Written = mopt.Metrics.CounterValue("journal_records_written")
		out.Replayed = mopt.Metrics.CounterValue("journal_records_replayed")
		return cursor
	})}, nil
}

// jfsDump flattens the tree to a canonical string for state comparison.
func jfsDump(e *uniproc.Env, j *journal.JFS) string {
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

// jfsPrefixStates runs each script prefix on a fault-free processor and
// returns its canonical dump (index p = state after the first p ops).
func jfsPrefixStates(script []journal.Record) ([]string, error) {
	states := make([]string, len(script)+1)
	arena := make([]uniproc.Word, jfsArenaWords)
	var runErr error
	proc := uniproc.New(uniproc.Config{})
	proc.EnablePersistence()
	proc.Go("main", func(e *uniproc.Env) {
		j, err := journal.MountFS(e, cthreads.New(core.NewRAS()), arena, journal.Options{})
		if err != nil {
			runErr = err
			return
		}
		states[0] = jfsDump(e, j)
		for i, r := range script {
			if err := j.Do(e, r); err != nil {
				runErr = fmt.Errorf("op %d: %w", i, err)
				return
			}
			states[i+1] = jfsDump(e, j)
		}
	})
	if err := proc.Run(); err != nil {
		return nil, err
	}
	return states, runErr
}

// ---------------------------------------------------------------------
// pstruct: core.PersistentStack / core.PersistentQueue crashed at every
// persist boundary. The invariant is transactionality: the recovered
// structure equals the state after exactly `returned` operations, or
// returned+1 (the one in-flight operation, when its commit point was
// crossed) — never a torn intermediate, never a lost committed op.

// pstructScript parses the script parameter: space-separated ops,
// positive = push/enqueue the value, -1 = pop/dequeue. The structure's
// capacity is the script's length.
func pstructScript(s string) ([]int, error) {
	var ops []int
	for _, f := range strings.Fields(s) {
		op, err := strconv.Atoi(f)
		if err != nil || op == 0 || op < -1 {
			return nil, fmt.Errorf("script op %q is neither a positive value nor -1", f)
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, errors.New("empty script")
	}
	return ops, nil
}

func pstructModel(p map[string]string) (Model, error) {
	mode, err := core.ParseLogMode(p["mode"])
	if err != nil {
		return nil, fmt.Errorf("mcheck: pstruct: %v", err)
	}
	kind := p["struct"]
	if kind != "stack" && kind != "queue" {
		return nil, fmt.Errorf("mcheck: pstruct: unknown struct %q", p["struct"])
	}
	primary, err := tornPrimary(p, "pstruct")
	if err != nil {
		return nil, err
	}
	script, err := pstructScript(p["script"])
	if err != nil {
		return nil, fmt.Errorf("mcheck: pstruct: %v", err)
	}
	states, err := pstructPrefixStates(kind, mode, script)
	if err != nil {
		return nil, fmt.Errorf("mcheck: pstruct: %v", err)
	}
	return &model{name: "pstruct", params: p, primary: primary, new: uniNew(func(ds []Decision, opt Options, vio *violations, out *Outcome) uint64 {
		arena := PStructArena(kind, len(script))
		returned := 0
		return rebootUni(ds, opt, vio, out, func(proc *uniproc.Processor, boot int) func() {
			var state []uniproc.Word
			var opErr error
			proc.Go("main", func(e *uniproc.Env) {
				// Recover runs first on every boot — a crash inside a
				// previous boot's recovery re-runs it here, idempotently.
				ops := script
				if boot > 0 {
					ops = nil
				}
				var repaired bool
				if repaired, opErr = PStructOps(e, arena, kind, mode, ops, func() { returned++ }); repaired {
					out.Repairs++
				}
				state = pstructState(e, arena, kind, mode)
			})
			return func() {
				if opErr != nil {
					vio.add("abort", "boot %d: %v", boot+1, opErr)
					return
				}
				okA := slices.Equal(state, states[returned])
				okB := returned+1 < len(states) && slices.Equal(state, states[returned+1])
				if !okA && !okB {
					vio.add("pstruct-atomicity",
						"recovered %s state %v with %d returned ops: not the state after %d ops (%v) or %d (%v)",
						kind, state, returned, returned, states[returned], returned+1, stateOrNil(states, returned+1))
				}
			}
		})
	})}, nil
}

// PStructArena returns a zeroed arena for a persistent stack or queue
// (kind) of the given capacity.
func PStructArena(kind string, capacity int) []uniproc.Word {
	if kind == "stack" {
		return make([]uniproc.Word, core.StackArenaWords(capacity))
	}
	return make([]uniproc.Word, core.QueueArenaWords(capacity))
}

// PStructOps is the pstruct model's workload: it recovers the persistent
// stack or queue (kind) on arena, then applies ops (positive =
// push/enqueue, -1 = pop/dequeue), calling retired after each. It
// reports whether recovery repaired a transaction. It reads nothing
// else, so a fault-free run costs exactly the recovery and the ops.
func PStructOps(e *uniproc.Env, arena []uniproc.Word, kind string, mode core.LogMode, ops []int, retired func()) (repaired bool, err error) {
	if kind == "stack" {
		s := core.NewPersistentStack(arena, mode)
		repaired = s.Recover(e)
		for _, op := range ops {
			if op < 0 {
				if _, ok := s.Pop(e); !ok {
					return repaired, errors.New("pop on empty stack")
				}
			} else if err := s.Push(e, uniproc.Word(op)); err != nil {
				return repaired, err
			}
			retired()
		}
		return repaired, nil
	}
	q := core.NewPersistentQueue(arena, mode)
	repaired = q.Recover(e)
	for _, op := range ops {
		if op < 0 {
			if _, ok := q.Dequeue(e); !ok {
				return repaired, errors.New("dequeue on empty queue")
			}
		} else if err := q.Enqueue(e, uniproc.Word(op)); err != nil {
			return repaired, err
		}
		retired()
	}
	return repaired, nil
}

// pstructState is the structure's observable state: its length, then
// its contents (stack bottom-first, queue oldest-first). Sequence and log
// words are excluded — the redo discipline lets the applied-sequence
// write-back lag one fence, so only the logical contents are comparable
// across crashes.
func pstructState(e *uniproc.Env, arena []uniproc.Word, kind string, mode core.LogMode) []uniproc.Word {
	var vs []uniproc.Word
	if kind == "stack" {
		vs = core.NewPersistentStack(arena, mode).Contents(e)
	} else {
		vs = core.NewPersistentQueue(arena, mode).Contents(e)
	}
	return append([]uniproc.Word{uniproc.Word(len(vs))}, vs...)
}

// pstructPrefixStates computes the observable state after each prefix
// of the script on a fault-free processor.
func pstructPrefixStates(kind string, mode core.LogMode, script []int) ([][]uniproc.Word, error) {
	states := make([][]uniproc.Word, len(script)+1)
	var runErr error
	for n := range states {
		arena := PStructArena(kind, len(script))
		proc := uniproc.New(uniproc.Config{})
		proc.EnablePersistence()
		proc.Go("main", func(e *uniproc.Env) {
			if _, runErr = PStructOps(e, arena, kind, mode, script[:n], func() {}); runErr == nil {
				states[n] = pstructState(e, arena, kind, mode)
			}
		})
		if err := proc.Run(); err != nil {
			return nil, err
		}
		if runErr != nil {
			return nil, runErr
		}
	}
	return states, nil
}

func stateOrNil(states [][]uniproc.Word, i int) []uniproc.Word {
	if i < len(states) {
		return states[i]
	}
	return nil
}

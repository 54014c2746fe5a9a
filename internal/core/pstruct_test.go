package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/uniproc"
)

// Basic LIFO/FIFO semantics survive a clean run in both log modes.
func TestPersistentStackQueueSemantics(t *testing.T) {
	for _, mode := range []LogMode{Undo, Redo} {
		t.Run("stack-"+mode.String(), func(t *testing.T) {
			arena := make([]uniproc.Word, StackArenaWords(4))
			p := uniproc.New(uniproc.Config{})
			p.EnablePersistence()
			p.Go("main", func(e *uniproc.Env) {
				s := NewPersistentStack(arena, mode)
				s.Recover(e)
				for i := 1; i <= 4; i++ {
					if err := s.Push(e, uniproc.Word(i)); err != nil {
						t.Errorf("push %d: %v", i, err)
					}
				}
				if err := s.Push(e, 99); !errors.Is(err, ErrStructFull) {
					t.Errorf("push on full = %v, want ErrStructFull", err)
				}
				for i := 4; i >= 1; i-- {
					v, ok := s.Pop(e)
					if !ok || v != uniproc.Word(i) {
						t.Errorf("pop = %d,%v, want %d", v, ok, i)
					}
				}
				if _, ok := s.Pop(e); ok {
					t.Error("pop on empty succeeded")
				}
			})
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run("queue-"+mode.String(), func(t *testing.T) {
			arena := make([]uniproc.Word, QueueArenaWords(3))
			p := uniproc.New(uniproc.Config{})
			p.EnablePersistence()
			p.Go("main", func(e *uniproc.Env) {
				q := NewPersistentQueue(arena, mode)
				q.Recover(e)
				// Wrap the ring twice to exercise the modulo indexing.
				next, want := 1, 1
				for round := 0; round < 3; round++ {
					for q.Len(e) < q.Cap() {
						if err := q.Enqueue(e, uniproc.Word(next)); err != nil {
							t.Fatalf("enqueue %d: %v", next, err)
						}
						next++
					}
					if err := q.Enqueue(e, 99); !errors.Is(err, ErrStructFull) {
						t.Errorf("enqueue on full = %v", err)
					}
					for q.Len(e) > 0 {
						v, ok := q.Dequeue(e)
						if !ok || v != uniproc.Word(want) {
							t.Errorf("dequeue = %d,%v, want %d", v, ok, want)
						}
						want++
					}
				}
				if _, ok := q.Dequeue(e); ok {
					t.Error("dequeue on empty succeeded")
				}
			})
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// pushPopScript drives a stack through pushes and pops; state(i) is the
// expected contents after the first i ops.
var pushPopScript = []int{+10, +20, -1, +30, +40, -1, -1, +50, -1, -1}

// tornCrash is a volatile crash, torn when torn is set.
func tornCrash(torn bool) chaos.Action {
	if torn {
		return chaos.Action{Crash: chaos.CrashTorn}
	}
	return chaos.Action{Crash: chaos.CrashVolatile}
}

func stackStateAfter(prefix int) []uniproc.Word {
	var st []uniproc.Word
	for _, op := range pushPopScript[:prefix] {
		if op > 0 {
			st = append(st, uniproc.Word(op))
		} else {
			st = st[:len(st)-1]
		}
	}
	return st
}

// readStack recovers the arena on a fresh processor and returns contents
// bottom-up.
func readStack(t *testing.T, arena []uniproc.Word, mode LogMode) []uniproc.Word {
	t.Helper()
	var out []uniproc.Word
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		s := NewPersistentStack(arena, mode)
		s.Recover(e)
		n := s.Len(e)
		for i := 0; i < n; i++ {
			out = append(out, e.Load(&arena[topIdx+1+i]))
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func eqWords(a, b []uniproc.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Crash at EVERY persist boundary, clean and torn, in both log modes:
// after recovery the stack equals some prefix of the script — at least
// every operation that returned, never a half-applied operation.
func TestPersistentStackCrashSweep(t *testing.T) {
	for _, mode := range []LogMode{Undo, Redo} {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-torn=%v", mode, torn), func(t *testing.T) {
				// Reference run sizes the ordinal space.
				ref := uniproc.New(uniproc.Config{})
				ref.EnablePersistence()
				refArena := make([]uniproc.Word, StackArenaWords(8))
				ref.Go("main", func(e *uniproc.Env) {
					s := NewPersistentStack(refArena, mode)
					s.Recover(e)
					runStackScript(t, e, s, nil)
				})
				if err := ref.Run(); err != nil {
					t.Fatal(err)
				}
				total := ref.PersistOps()

				for c := uint64(1); c <= total; c++ {
					arena := make([]uniproc.Word, StackArenaWords(8))
					returned := 0
					p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
						Point:  chaos.PointPersist,
						N:      c,
						Action: tornCrash(torn),
					}})
					p.EnablePersistence()
					p.Go("main", func(e *uniproc.Env) {
						s := NewPersistentStack(arena, mode)
						s.Recover(e)
						runStackScript(t, e, s, &returned)
					})
					if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
						t.Fatalf("crash %d: Run = %v, want ErrMachineCrash", c, err)
					}
					got := readStack(t, arena, mode)
					// Exactly two states are legal: every returned op
					// applied, or those plus the one op in flight at the
					// crash. (Prefix states can coincide — [10] is both
					// "after push 10" and "after push,push,pop" — so match
					// on the op count, not by searching all prefixes.)
					ok := eqWords(got, stackStateAfter(returned))
					if !ok && returned < len(pushPopScript) {
						ok = eqWords(got, stackStateAfter(returned+1))
					}
					if !ok {
						t.Fatalf("crash %d: recovered stack %v, want state after %d or %d ops",
							c, got, returned, returned+1)
					}
				}
			})
		}
	}
}

func runStackScript(t *testing.T, e *uniproc.Env, s *PersistentStack, returned *int) {
	for i, op := range pushPopScript {
		if op > 0 {
			if err := s.Push(e, uniproc.Word(op)); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		} else {
			want := stackStateAfter(i)
			if v, ok := s.Pop(e); !ok || v != want[len(want)-1] {
				t.Errorf("op %d: pop = %d,%v, want %d", i, v, ok, want[len(want)-1])
				return
			}
		}
		if returned != nil {
			*returned++
		}
	}
}

// The queue under the same exhaustive treatment: every boundary, both
// modes, clean and torn; recovered contents are a prefix of the enqueue
// stream with the right number of dequeues applied.
func TestPersistentQueueCrashSweep(t *testing.T) {
	const enqs = 6
	script := func(t *testing.T, e *uniproc.Env, q *PersistentQueue, returned *int) {
		deq := 0
		for i := 1; i <= enqs; i++ {
			if err := q.Enqueue(e, uniproc.Word(100+i)); err != nil {
				t.Errorf("enqueue %d: %v", i, err)
				return
			}
			if returned != nil {
				*returned++
			}
			if i%2 == 0 { // interleave dequeues
				if v, ok := q.Dequeue(e); !ok || v != uniproc.Word(100+deq+1) {
					t.Errorf("dequeue = %d,%v, want %d", v, ok, 100+deq+1)
					return
				}
				deq++
				if returned != nil {
					*returned++
				}
			}
		}
	}
	for _, mode := range []LogMode{Undo, Redo} {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-torn=%v", mode, torn), func(t *testing.T) {
				ref := uniproc.New(uniproc.Config{})
				ref.EnablePersistence()
				refArena := make([]uniproc.Word, QueueArenaWords(4))
				ref.Go("main", func(e *uniproc.Env) {
					q := NewPersistentQueue(refArena, mode)
					q.Recover(e)
					script(t, e, q, nil)
				})
				if err := ref.Run(); err != nil {
					t.Fatal(err)
				}
				total := ref.PersistOps()

				for c := uint64(1); c <= total; c++ {
					arena := make([]uniproc.Word, QueueArenaWords(4))
					returned := 0
					p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
						Point:  chaos.PointPersist,
						N:      c,
						Action: tornCrash(torn),
					}})
					p.EnablePersistence()
					p.Go("main", func(e *uniproc.Env) {
						q := NewPersistentQueue(arena, mode)
						q.Recover(e)
						script(t, e, q, &returned)
					})
					if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
						t.Fatalf("crash %d: Run = %v, want ErrMachineCrash", c, err)
					}
					// Recover and validate: contents must be a contiguous
					// run 100+h+1 .. 100+t of the enqueue stream, with
					// progress at least what returned implies.
					var head, tail uint32
					var ring []uniproc.Word
					p2 := uniproc.New(uniproc.Config{})
					p2.EnablePersistence()
					p2.Go("main", func(e *uniproc.Env) {
						q := NewPersistentQueue(arena, mode)
						q.Recover(e)
						head = uint32(e.Load(&arena[dataBase+headOff]))
						tail = uint32(e.Load(&arena[dataBase+tailOff]))
						for i := head; i < tail; i++ {
							ring = append(ring, e.Load(&arena[dataBase+ringOff+int(i%4)]))
						}
					})
					if err := p2.Run(); err != nil {
						t.Fatal(err)
					}
					if tail < head || tail > enqs || head > 3 {
						t.Fatalf("crash %d: recovered head=%d tail=%d out of range", c, head, tail)
					}
					for i, v := range ring {
						if v != uniproc.Word(100+int(head)+i+1) {
							t.Fatalf("crash %d: ring[%d] = %d, want %d (contents not a contiguous stream run)",
								c, i, v, 100+int(head)+i+1)
						}
					}
					// Progress: ops are monotone; total ops recovered
					// (tail enqueues + head dequeues) must cover every
					// returned op plus at most the one in flight.
					if n := int(tail + head); n < returned || n > returned+1 {
						t.Fatalf("crash %d: %d ops returned but %d recovered", c, returned, n)
					}
				}
			})
		}
	}
}

// A crash DURING recovery re-runs recovery idempotently: sweep every
// persist boundary of the first recovery, then recover again cleanly.
func TestPersistentStackCrashDuringRecovery(t *testing.T) {
	for _, mode := range []LogMode{Undo, Redo} {
		t.Run(mode.String(), func(t *testing.T) {
			// Build an arena with an in-flight transaction: crash the
			// first run mid-push at a boundary where the log is durable.
			makeCrashed := func() []uniproc.Word {
				arena := make([]uniproc.Word, StackArenaWords(4))
				p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
					Point:  chaos.PointPersist,
					N:      3, // after the log fence, mid-apply
					Action: chaos.Action{Crash: chaos.CrashVolatile},
				}})
				p.EnablePersistence()
				p.Go("main", func(e *uniproc.Env) {
					s := NewPersistentStack(arena, mode)
					s.Recover(e)
					s.Push(e, 7)
					s.Push(e, 8)
				})
				if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
					t.Fatalf("setup crash: %v", err)
				}
				return arena
			}

			// Size the recovery's own persist-op space.
			probe := makeCrashed()
			ref := uniproc.New(uniproc.Config{})
			ref.EnablePersistence()
			ref.Go("main", func(e *uniproc.Env) {
				NewPersistentStack(probe, mode).Recover(e)
			})
			if err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			total := ref.PersistOps()

			for c := uint64(1); c <= total; c++ {
				arena := makeCrashed()
				p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
					Point:  chaos.PointPersist,
					N:      c,
					Action: chaos.Action{Crash: chaos.CrashVolatile},
				}})
				p.EnablePersistence()
				p.Go("main", func(e *uniproc.Env) {
					NewPersistentStack(arena, mode).Recover(e)
				})
				if err := p.Run(); !errors.Is(err, uniproc.ErrMachineCrash) {
					t.Fatalf("crash %d during recovery: Run = %v", c, err)
				}
				got := readStack(t, arena, mode) // second recovery, clean
				want := [][]uniproc.Word{{7}, {7, 8}}
				if !eqWords(got, want[0]) && !eqWords(got, want[1]) {
					t.Fatalf("crash %d during recovery: stack = %v, want [7] or [7 8]", c, got)
				}
			}
		})
	}
}

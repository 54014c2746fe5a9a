package uniproc

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// Store → Flush → Fence walks a word across the tiers, a later store
// cancels an unfenced write-back, and a volatile crash reverts exactly
// the unfenced words — the runtime-layer mirror of the vmach line buffer.
func TestPersistenceTiersAtWordGranularity(t *testing.T) {
	var a, b Word = 7, 0
	p := New(Config{})
	p.EnablePersistence()
	p.Go("main", func(e *Env) {
		e.Store(&a, 42)
		if got := p.NVPeek(&a); got != 7 {
			t.Errorf("NVM tier = %d before fence, want 7", got)
		}
		e.Flush(&a)
		if got := p.NVPeek(&a); got != 7 {
			t.Errorf("NVM tier = %d after flush but before fence, want 7", got)
		}
		e.Fence()
		if got := p.NVPeek(&a); got != 42 {
			t.Errorf("NVM tier = %d after fence, want 42", got)
		}

		e.Store(&b, 1)
		e.Flush(&b)
		e.Store(&b, 2) // cancels the pending write-back
		e.Fence()
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Flushes != 2 || p.Stats.Fences != 2 || p.Stats.Persists != 1 {
		t.Errorf("Flushes=%d Fences=%d Persists=%d, want 2/2/1",
			p.Stats.Flushes, p.Stats.Fences, p.Stats.Persists)
	}
	p.Crash(chaos.CrashVolatile, 0)
	if a != 42 || b != 0 {
		t.Fatalf("after crash: a=%d b=%d, want a=42 b=0", a, b)
	}
}

// The fence pays the profile's drain cost per word actually persisted;
// an empty fence costs only its base cycles.
func TestFenceChargesDrainPerWord(t *testing.T) {
	var w Word
	p := New(Config{})
	p.EnablePersistence()
	prof := p.Profile()
	p.Go("main", func(e *Env) {
		e.Store(&w, 1)
		e.Flush(&w)
		c0 := e.Now()
		e.Fence()
		if got, want := e.Now()-c0, uint64(prof.FenceCycles+prof.PersistDrainCycles); got != want {
			t.Errorf("loaded fence cost %d cycles, want %d", got, want)
		}
		c0 = e.Now()
		e.Fence()
		if got, want := e.Now()-c0, uint64(prof.FenceCycles); got != want {
			t.Errorf("empty fence cost %d cycles, want %d", got, want)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

// Without EnablePersistence, Flush and Fence are charged hints on fully
// persistent RAM: nothing to lose, nothing to drain, and a volatile
// crash degrades.
func TestFlushIsHintWithoutPersistence(t *testing.T) {
	var w Word
	p := New(Config{})
	p.Go("main", func(e *Env) {
		e.Store(&w, 9)
		e.Flush(&w)
		e.Fence()
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Persists != 0 {
		t.Errorf("non-persistent processor persisted %d words", p.Stats.Persists)
	}
	if p.Crash(chaos.CrashVolatile, 0) || w != 9 {
		t.Fatal("non-persistent processor honoured a volatile crash or lost a committed store")
	}
}

// An injected volatile crash discards the volatile tier before stopping
// the run; on the same schedule, a clean crash keeps every committed
// store — the two halves of the chaos crash contract.
func TestCrashVolatileDiscardsUnflushed(t *testing.T) {
	run := func(act chaos.Action) Word {
		var w Word
		p := New(Config{Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 3, Action: act}})
		p.EnablePersistence()
		p.Go("main", func(e *Env) {
			e.Store(&w, 1) // memop 1
			e.Flush(&w)
			e.Fence()      // w=1 is durable
			e.Store(&w, 2) // memop 2
			e.Store(&w, 3) // memop 3: the crash point
			t.Error("crash did not fire")
		})
		if err := p.Run(); !errors.Is(err, ErrMachineCrash) {
			t.Fatalf("Run = %v, want ErrMachineCrash", err)
		}
		return w
	}
	if got := run(chaos.Action{Crash: chaos.CrashVolatile}); got != 1 {
		t.Errorf("after volatile crash w = %d, want 1 (last fenced value)", got)
	}
	if got := run(chaos.Action{Crash: chaos.CrashClean}); got != 3 {
		t.Errorf("after fully-persistent crash w = %d, want 3 (every committed store survives)", got)
	}
}

// A torn crash persists a flush-order PREFIX of the pending words: if the
// i-th flushed word survived, every earlier-flushed pending word did too.
// Dirty words that were never flushed always revert, and a word whose
// write-back a later store cancelled never survives.
func TestTornCrashPersistsFlushOrderPrefix(t *testing.T) {
	const n = 8
	run := func(h uint64) []Word {
		words := make([]Word, n+2)
		p := New(Config{})
		p.EnablePersistence()
		p.Go("main", func(e *Env) {
			for i := 0; i < n; i++ {
				e.Store(&words[i], Word(100+i))
				e.Flush(&words[i])
			}
			e.Store(&words[n], 55) // dirty, never flushed
			e.Store(&words[n+1], 66)
			e.Flush(&words[n+1])
			e.Store(&words[n+1], 77) // cancels the pending write-back
		})
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		p.Crash(chaos.CrashTorn, h)
		return words
	}
	partial := false
	for h := uint64(0); h < 32; h++ {
		words := run(h)
		k := 0
		for ; k < n; k++ {
			if words[k] != Word(100+k) {
				break
			}
		}
		for i := k; i < n; i++ {
			if words[i] != 0 {
				t.Fatalf("h=%d: word %d = %d with prefix %d — survivors are not a flush-order prefix",
					h, i, words[i], k)
			}
		}
		if 0 < k && k < n {
			partial = true
		}
		if words[n] != 0 {
			t.Fatalf("h=%d: unflushed word survived a torn crash", h)
		}
		if words[n+1] != 0 {
			t.Fatalf("h=%d: cancelled write-back survived a torn crash (word=%d)", h, words[n+1])
		}
		if again := run(h); !equalWords(again, words) {
			t.Fatalf("h=%d: torn crash is not deterministic", h)
		}
	}
	if !partial {
		t.Fatal("no h in [0,32) produced a partial drain — the fault never tears")
	}
}

func equalWords(a, b []Word) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PointPersist is a crash-only injection point: a schedule can name "the
// k-th flush/fence boundary" directly, the ordinal space the persistence
// model checker enumerates. The crash lands after the op's effect.
func TestCrashAtPersistBoundary(t *testing.T) {
	run := func(act chaos.Action, n uint64) (Word, *Processor) {
		var w Word
		p := New(Config{Faults: chaos.OneShot{Point: chaos.PointPersist, N: n, Action: act}})
		p.EnablePersistence()
		p.Go("main", func(e *Env) {
			e.Store(&w, 1)
			e.Flush(&w) // persist op 1
			e.Fence()   // persist op 2: w=1 durable the instant the crash can land
			e.Store(&w, 2)
			e.Flush(&w) // persist op 3
			e.Fence()   // persist op 4
			e.Store(&w, 3)
		})
		if err := p.Run(); !errors.Is(err, ErrMachineCrash) {
			t.Fatalf("Run = %v, want ErrMachineCrash", err)
		}
		return w, p
	}
	// Crash right after the first fence: the fenced value survives, the
	// pre-fence flush alone (op 1) would not have persisted anything.
	if got, _ := run(chaos.Action{Crash: chaos.CrashVolatile}, 2); got != 1 {
		t.Errorf("crash after fence 1: w = %d, want 1", got)
	}
	if got, _ := run(chaos.Action{Crash: chaos.CrashVolatile}, 1); got != 0 {
		t.Errorf("crash after flush 1 (unfenced): w = %d, want 0", got)
	}
	if got, _ := run(chaos.Action{Crash: chaos.CrashVolatile}, 4); got != 2 {
		t.Errorf("crash after fence 2: w = %d, want 2", got)
	}
	// A torn crash at a flush boundary with a single pending word either
	// drained it or lost it — both legal, never a third value.
	if got, _ := run(chaos.Action{Crash: chaos.CrashTorn}, 3); got != 0 && got != 2 {
		t.Errorf("torn crash after flush 2: w = %d, want 0 or 2", got)
	}
	// The ordinal stream is observable for schedule construction.
	if _, p := run(chaos.Action{Crash: chaos.CrashClean}, 4); p.PersistOps() != 4 {
		t.Errorf("PersistOps = %d at the crash, want 4", p.PersistOps())
	}
}

// A torn crash on a processor that never enabled persistence degrades to
// a clean crash — every committed store survives — and announces the
// degradation with an obs event.
func TestCrashVolatileDegradesWithoutPersistence(t *testing.T) {
	var w Word
	ring := obs.NewRing(256)
	p := New(Config{Faults: chaos.OneShot{
		Point: chaos.PointMemOp, N: 2, Action: chaos.Action{Crash: chaos.CrashTorn},
	}})
	p.Tracer = ring
	p.Go("main", func(e *Env) {
		e.Store(&w, 1)
		e.Store(&w, 2) // memop 2: the crash point
	})
	if err := p.Run(); !errors.Is(err, ErrMachineCrash) {
		t.Fatalf("Run = %v, want ErrMachineCrash", err)
	}
	if w != 2 {
		t.Errorf("w = %d after degraded crash, want 2 (fully persistent semantics)", w)
	}
	degraded := false
	for _, ev := range ring.Events() {
		if ev.Type == obs.KindCrashDegraded {
			degraded = true
		}
	}
	if !degraded {
		t.Error("no crash-degraded event: the fallback to Crash semantics is silent")
	}
}

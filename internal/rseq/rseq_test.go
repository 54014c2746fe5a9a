package rseq

import (
	"testing"
	"testing/quick"

	"repro/internal/uniproc"
)

func runOn(t *testing.T, q uint64, fn func(e *uniproc.Env)) *uniproc.Processor {
	t.Helper()
	p := uniproc.New(uniproc.Config{Quantum: q})
	p.Go("main", fn)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCmpEqvStorev(t *testing.T) {
	runOn(t, 1<<20, func(e *uniproc.Env) {
		var v Word = 5
		if !CmpEqvStorev(e, &v, 5, 9) {
			t.Error("matching compare failed")
		}
		if v != 9 {
			t.Errorf("v = %d", v)
		}
		if CmpEqvStorev(e, &v, 5, 1) {
			t.Error("mismatching compare succeeded")
		}
		if v != 9 {
			t.Errorf("v = %d after failed CAS", v)
		}
	})
}

func TestAddvConcurrent(t *testing.T) {
	const n, iters = 4, 500
	p := uniproc.New(uniproc.Config{Quantum: 41})
	var v Word
	for i := 0; i < n; i++ {
		p.Go("adder", func(e *uniproc.Env) {
			for j := 0; j < iters; j++ {
				Addv(e, &v, 1)
			}
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if v != n*iters {
		t.Errorf("v = %d, want %d", v, n*iters)
	}
	if p.Stats.Restarts == 0 {
		t.Error("expected restarts at a 41-cycle quantum")
	}
}

func TestPerCPUCounter(t *testing.T) {
	const n, iters = 3, 400
	p := uniproc.New(uniproc.Config{Quantum: 53})
	var c PerCPUCounter
	for i := 0; i < n; i++ {
		p.Go("inc", func(e *uniproc.Env) {
			for j := 0; j < iters; j++ {
				c.Inc(e)
			}
			c.Add(e, 0)
		})
	}
	p.Go("reader", func(e *uniproc.Env) {
		_ = c.Sum(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	pp := uniproc.New(uniproc.Config{})
	pp.Go("check", func(e *uniproc.Env) {
		if got := c.Sum(e); got != n*iters {
			t.Errorf("sum = %d, want %d", got, n*iters)
		}
	})
	if err := pp.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPerCPUCounterSharded(t *testing.T) {
	const shards, incsPerShard = 4, 300
	p := uniproc.New(uniproc.Config{Quantum: 47, JitterSeed: 3})
	c := MakePerCPUCounter(shards)
	if c.Slots() != shards {
		t.Fatalf("Slots() = %d, want %d", c.Slots(), shards)
	}
	for cpu := 0; cpu < shards; cpu++ {
		cpu := cpu
		p.Go("inc", func(e *uniproc.Env) {
			for j := 0; j < incsPerShard; j++ {
				c.IncOn(e, cpu)
			}
			c.AddOn(e, cpu, 2)
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	pp := uniproc.New(uniproc.Config{})
	pp.Go("check", func(e *uniproc.Env) {
		want := Word(shards * (incsPerShard + 2))
		if got := c.Sum(e); got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
	})
	if err := pp.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPerCPUCounterZeroValueGrows(t *testing.T) {
	runOn(t, 1<<20, func(e *uniproc.Env) {
		var c PerCPUCounter
		if c.Slots() != 1 {
			t.Errorf("zero-value Slots() = %d, want 1", c.Slots())
		}
		c.Inc(e)
		c.IncOn(e, 3) // growth on first touch of a new shard
		if got := c.Sum(e); got != 2 {
			t.Errorf("sum = %d, want 2", got)
		}
		if c.Slots() != 4 {
			t.Errorf("Slots() = %d after IncOn(3), want 4", c.Slots())
		}
	})
}

func TestListPop(t *testing.T) {
	runOn(t, 1<<20, func(e *uniproc.Env) {
		var head Word
		next := make([]Word, 3)
		for node := 0; node < 3; node++ {
			ListPush(e, &head, next, node)
		}
		for want := 2; want >= 0; want-- { // LIFO
			node, ok := ListPop(e, &head, next)
			if !ok || node != want {
				t.Fatalf("pop = %d, %v; want %d", node, ok, want)
			}
		}
		if _, ok := ListPop(e, &head, next); ok {
			t.Error("pop from empty succeeded")
		}
	})
}

func TestListPushPopConcurrent(t *testing.T) {
	// Pushers and a single popper race on one list under a small quantum:
	// every node must be popped exactly once, never twice, never lost.
	const pushers, per = 3, 50
	p := uniproc.New(uniproc.Config{Quantum: 59, JitterSeed: 7})
	var head Word
	next := make([]Word, pushers*per)
	seen := make([]bool, pushers*per)
	done := 0
	for i := 0; i < pushers; i++ {
		base := i * per
		p.Go("pusher", func(e *uniproc.Env) {
			for j := 0; j < per; j++ {
				ListPush(e, &head, next, base+j)
			}
			done++
		})
	}
	p.Go("popper", func(e *uniproc.Env) {
		total := 0
		for {
			if n, ok := ListPop(e, &head, next); ok {
				if seen[n] {
					t.Errorf("node %d popped twice", n)
				}
				seen[n] = true
				total++
				continue
			}
			if done == pushers && total == pushers*per {
				return
			}
			e.Yield()
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	for n, ok := range seen {
		if !ok {
			t.Errorf("node %d lost", n)
		}
	}
}

func TestListPushPopAll(t *testing.T) {
	runOn(t, 1<<20, func(e *uniproc.Env) {
		var head Word
		next := make([]Word, 4)
		for node := 0; node < 4; node++ {
			ListPush(e, &head, next, node)
		}
		got := ListPopAll(e, &head, next)
		want := []int{3, 2, 1, 0} // LIFO
		if len(got) != 4 {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
		if out := ListPopAll(e, &head, next); out != nil {
			t.Errorf("pop from empty = %v", out)
		}
	})
}

func TestListConcurrentNoLoss(t *testing.T) {
	const pushers, per = 3, 60
	p := uniproc.New(uniproc.Config{Quantum: 67, JitterSeed: 2})
	var head Word
	next := make([]Word, pushers*per)
	seen := make([]bool, pushers*per)
	done := 0
	for i := 0; i < pushers; i++ {
		base := i * per
		p.Go("pusher", func(e *uniproc.Env) {
			for j := 0; j < per; j++ {
				ListPush(e, &head, next, base+j)
			}
			done++
		})
	}
	p.Go("drainer", func(e *uniproc.Env) {
		total := 0
		for {
			for _, n := range ListPopAll(e, &head, next) {
				if seen[n] {
					t.Errorf("node %d popped twice", n)
				}
				seen[n] = true
				total++
			}
			if done == pushers && total == pushers*per {
				return
			}
			e.Yield()
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	for n, ok := range seen {
		if !ok {
			t.Errorf("node %d lost", n)
		}
	}
}

// Property: CmpEqvStorev behaves exactly like a model compare-and-swap
// under arbitrary quanta.
func TestQuickCASMatchesModel(t *testing.T) {
	f := func(vals []uint32, q16 uint16) bool {
		p := uniproc.New(uniproc.Config{Quantum: uint64(q16)%200 + 13})
		var v Word
		model := Word(0)
		ok := true
		p.Go("main", func(e *uniproc.Env) {
			for i, raw := range vals {
				expect := Word(raw % 4)
				newv := Word(i)
				got := CmpEqvStorev(e, &v, expect, newv)
				want := model == expect
				if want {
					model = newv
				}
				if got != want || v != model {
					ok = false
				}
			}
		})
		return p.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Slots reports how many CPU slots the counter carries.
func (c *PerCPUCounter) Slots() int {
	if len(c.slots) == 0 {
		return 1
	}
	return len(c.slots)
}

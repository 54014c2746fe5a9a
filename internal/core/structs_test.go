package core

import (
	"testing"
	"testing/quick"

	"repro/internal/uniproc"
)

func TestStackSingleThread(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	s := NewStack()
	p.Go("main", func(e *uniproc.Env) {
		if _, ok := s.Pop(e); ok {
			t.Error("pop from empty stack succeeded")
		}
		s.Push(e, 1)
		s.Push(e, 2)
		s.Push(e, 3)
		if s.Len() != 3 {
			t.Errorf("len = %d", s.Len())
		}
		for want := Word(3); want >= 1; want-- {
			v, ok := s.Pop(e)
			if !ok || v != want {
				t.Errorf("pop = %d,%v want %d", v, ok, want)
			}
		}
		if _, ok := s.Pop(e); ok {
			t.Error("stack not empty after draining")
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStackNodeRecycling(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	s := NewStack()
	p.Go("main", func(e *uniproc.Env) {
		for i := 0; i < 100; i++ {
			s.Push(e, Word(i))
			if v, ok := s.Pop(e); !ok || v != Word(i) {
				t.Fatalf("round %d: %d,%v", i, v, ok)
			}
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// Arena should have stayed tiny thanks to the free list.
	if len(s.nodes) > 4 {
		t.Errorf("arena grew to %d nodes for depth-1 traffic", len(s.nodes))
	}
}

// Concurrent pushers and poppers under adversarial preemption: the multiset
// of popped values must exactly equal the multiset pushed.
func TestStackConcurrentNoLossNoDup(t *testing.T) {
	for _, q := range []uint64{23, 61, 211} {
		p := uniproc.New(uniproc.Config{Quantum: q, JitterSeed: 77})
		s := NewStack()
		const producers, perProducer = 3, 100
		seen := make(map[Word]int)
		done := 0
		for i := 0; i < producers; i++ {
			base := Word(i * 1000)
			p.Go("pusher", func(e *uniproc.Env) {
				for j := 0; j < perProducer; j++ {
					s.Push(e, base+Word(j))
				}
				done++
			})
		}
		p.Go("popper", func(e *uniproc.Env) {
			for {
				v, ok := s.Pop(e)
				if ok {
					seen[v]++
					continue
				}
				if done == producers {
					return
				}
				e.Yield()
			}
		})
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != producers*perProducer {
			t.Fatalf("q=%d: popped %d distinct values, want %d",
				q, len(seen), producers*perProducer)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("q=%d: value %d popped %d times", q, v, n)
			}
		}
	}
}

func TestStackPopAll(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	s := NewStack()
	p.Go("main", func(e *uniproc.Env) {
		for i := 1; i <= 5; i++ {
			s.Push(e, Word(i))
		}
		got := s.PopAll(e)
		want := []Word{5, 4, 3, 2, 1}
		if len(got) != 5 {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
		if s.Len() != 0 {
			t.Error("stack not empty after PopAll")
		}
		if out := s.PopAll(e); out != nil {
			t.Errorf("PopAll on empty = %v", out)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	p := uniproc.New(uniproc.Config{Quantum: 37})
	c := NewCounter(NewRAS())
	const n, iters = 4, 200
	for i := 0; i < n; i++ {
		p.Go("adder", func(e *uniproc.Env) {
			for j := 0; j < iters; j++ {
				c.Add(e, 1)
			}
		})
	}
	p.Go("reader", func(e *uniproc.Env) {
		_ = c.Value(e) // concurrent reads are fine
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	pp := uniproc.New(uniproc.Config{})
	pp.Go("check", func(e *uniproc.Env) {
		if got := c.Value(e); got != n*iters {
			t.Errorf("counter = %d, want %d", got, n*iters)
		}
	})
	if err := pp.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	q := NewQueue(NewRAS())
	p.Go("main", func(e *uniproc.Env) {
		if _, ok := q.Dequeue(e); ok {
			t.Error("dequeue from empty queue")
		}
		for i := 1; i <= 10; i++ {
			q.Enqueue(e, Word(i))
		}
		for i := 1; i <= 10; i++ {
			v, ok := q.Dequeue(e)
			if !ok || v != Word(i) {
				t.Fatalf("dequeue %d = %d,%v", i, v, ok)
			}
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueInterleavedProducerConsumer(t *testing.T) {
	// Per-producer FIFO order must survive concurrency: for each producer,
	// its values arrive in increasing order.
	p := uniproc.New(uniproc.Config{Quantum: 97, JitterSeed: 31})
	q := NewQueue(NewRAS())
	const producers, per = 3, 80
	lastSeen := map[Word]Word{} // producer base -> last sequence number
	total := 0
	doneProd := 0
	for i := 0; i < producers; i++ {
		base := Word((i + 1) * 1000)
		p.Go("producer", func(e *uniproc.Env) {
			for j := 1; j <= per; j++ {
				q.Enqueue(e, base+Word(j))
			}
			doneProd++
		})
	}
	p.Go("consumer", func(e *uniproc.Env) {
		for {
			v, ok := q.Dequeue(e)
			if !ok {
				if doneProd == producers {
					return
				}
				e.Yield()
				continue
			}
			base := v / 1000 * 1000
			seq := v - base
			if seq <= lastSeen[base] {
				t.Errorf("producer %d out of order: %d after %d", base, seq, lastSeen[base])
			}
			lastSeen[base] = seq
			total++
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if total != producers*per {
		t.Errorf("consumed %d, want %d", total, producers*per)
	}
}

// Property: stack push/pop sequences behave like a model []Word stack, for
// arbitrary operation strings and quanta (single-threaded semantics).
func TestQuickStackMatchesModel(t *testing.T) {
	f := func(ops []byte, q16 uint16) bool {
		p := uniproc.New(uniproc.Config{Quantum: uint64(q16)%300 + 11})
		s := NewStack()
		var model []Word
		okAll := true
		p.Go("main", func(e *uniproc.Env) {
			for i, op := range ops {
				if op%3 != 0 { // push twice as often as pop
					v := Word(i)
					s.Push(e, v)
					model = append(model, v)
					continue
				}
				v, ok := s.Pop(e)
				if len(model) == 0 {
					if ok {
						okAll = false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v != want {
					okAll = false
				}
			}
		})
		return p.Run() == nil && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Len returns the current depth (diagnostics only: not atomic with respect
// to concurrent operations, though on the uniprocessor it is consistent at
// any instruction boundary).
func (s *Stack) Len() int {
	n := 0
	for h := s.head; h != 0; h = s.nodes[h].next {
		n++
	}
	return n
}

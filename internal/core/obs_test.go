package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/uniproc"
)

func TestRecoverableMutexPassageHistogram(t *testing.T) {
	const workers, iters = 4, 50
	p := uniproc.New(uniproc.Config{Quantum: 2000})
	m := NewRecoverableMutex()
	m.Passage = obs.NewRegistry().Histogram("rme_passage_cycles", "passage cost", obs.ExpBuckets(16, 16))
	var counter Word
	for i := 0; i < workers; i++ {
		p.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				m.Acquire(e)
				e.Store(&counter, e.Load(&counter)+1)
				m.Release(e)
			}
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// One observation per completed acquire→release passage, exactly.
	if got := m.Passage.Count(); got != workers*iters {
		t.Errorf("passage count = %d, want %d", got, workers*iters)
	}
	// Every passage costs at least the lock word's load+CAS+store traffic.
	if m.Passage.Sum() == 0 || m.Passage.Mean() < 1 {
		t.Errorf("passage cycles implausible: sum=%d mean=%v", m.Passage.Sum(), m.Passage.Mean())
	}
}

func TestRecoverableMutexPassageNilHistogramSafe(t *testing.T) {
	p := uniproc.New(uniproc.Config{Quantum: 2000})
	m := NewRecoverableMutex() // Passage left nil: all hooks must no-op
	p.Go("w", func(e *uniproc.Env) {
		m.Acquire(e)
		m.Release(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

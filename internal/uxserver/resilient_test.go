package uxserver

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/uniproc"
)

// durable is the NVM word set a ResilientServer survives reboots on.
type durable struct {
	arena   []uniproc.Word
	applied []uniproc.Word
	effects uniproc.Word
}

func newDurable(clients int) *durable {
	return &durable{
		arena:   make([]uniproc.Word, 4096),
		applied: make([]uniproc.Word, clients),
	}
}

// bootResilient runs one "machine life": a fresh processor and server
// over d's words; fn is the client workload (recovery and workers are
// already up when it runs).
func bootResilient(t *testing.T, d *durable, cfg ResilientConfig, fn func(e *uniproc.Env, s *ResilientServer)) *ResilientServer {
	t.Helper()
	p := uniproc.New(uniproc.Config{Quantum: 4096, JitterSeed: 7})
	p.EnablePersistence()
	pkg := cthreads.New(core.NewRAS())
	s := NewResilient(pkg, cfg, d.arena, d.applied, &d.effects)
	p.Go("main", func(e *uniproc.Env) {
		if err := s.Recover(e); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		s.Start(e)
		fn(e, s)
		s.Shutdown(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResilientExactlyOnce(t *testing.T) {
	const clients, seqs = 3, 5
	d := newDurable(clients)
	s := bootResilient(t, d, ResilientConfig{Clients: clients, Shards: 2},
		func(e *uniproc.Env, s *ResilientServer) {
			for c := 0; c < clients; c++ {
				for q := 1; q <= seqs; q++ {
					if err := s.Apply(e, c, uint64(q)); err != nil {
						t.Errorf("apply c%d/%d: %v", c, q, err)
					}
				}
			}
			// Retry every sequence: each must acknowledge as a duplicate
			// without touching the counter.
			for c := 0; c < clients; c++ {
				for q := 1; q <= seqs; q++ {
					if err := s.Apply(e, c, uint64(q)); err != nil {
						t.Errorf("retry c%d/%d: %v", c, q, err)
					}
				}
			}
			if got := s.Effects(e); got != clients*seqs {
				t.Errorf("effects = %d, want %d", got, clients*seqs)
			}
		})
	if st := s.Stats(); st.Applies != clients*seqs || st.DupAcks != clients*seqs {
		t.Errorf("stats = %+v, want %d applies and %d dup acks", st, clients*seqs, clients*seqs)
	}
}

// A reboot rebuilds the server over the same durable words; replay must
// deduplicate against the surviving applied table and client retries of
// pre-reboot sequences must acknowledge without re-applying.
func TestResilientRecoverAcrossReboot(t *testing.T) {
	const clients = 2
	d := newDurable(clients)
	cfg := ResilientConfig{Clients: clients, Shards: 1}
	bootResilient(t, d, cfg, func(e *uniproc.Env, s *ResilientServer) {
		for c := 0; c < clients; c++ {
			for q := 1; q <= 3; q++ {
				if err := s.Apply(e, c, uint64(q)); err != nil {
					t.Errorf("apply: %v", err)
				}
			}
		}
	})
	s2 := bootResilient(t, d, cfg, func(e *uniproc.Env, s *ResilientServer) {
		if got := s.Effects(e); got != 2*3 {
			t.Errorf("effects after reboot = %d, want 6", got)
		}
		// Cross-boot retries of already-acknowledged sequences.
		for c := 0; c < clients; c++ {
			if err := s.Apply(e, c, 3); err != nil {
				t.Errorf("cross-boot retry: %v", err)
			}
		}
		// And fresh work continues where the clients left off.
		for c := 0; c < clients; c++ {
			if err := s.Apply(e, c, 4); err != nil {
				t.Errorf("post-reboot apply: %v", err)
			}
		}
		if got := s.Effects(e); got != 2*4 {
			t.Errorf("effects = %d, want 8", got)
		}
	})
	st := s2.Stats()
	if st.ReplaySkips != 6 || st.Replayed != 0 {
		t.Errorf("replay stats = %+v: every surviving record should dedup", st)
	}
	if st.DupAcks != 2 || st.Applies != 2 {
		t.Errorf("serve stats = %+v, want 2 dup acks and 2 applies", st)
	}
}

// The planted missing-dedup variant must double-apply on replay — the
// bug the model checker exists to catch. Its correct sibling must not.
func TestResilientNoDedupDoubleApplies(t *testing.T) {
	for _, nodedup := range []bool{false, true} {
		d := newDurable(1)
		cfg := ResilientConfig{Clients: 1, Shards: 1, NoDedup: nodedup}
		bootResilient(t, d, cfg, func(e *uniproc.Env, s *ResilientServer) {
			if err := s.Apply(e, 0, 1); err != nil {
				t.Errorf("apply: %v", err)
			}
		})
		var got uniproc.Word
		bootResilient(t, d, cfg, func(e *uniproc.Env, s *ResilientServer) {
			got = s.Effects(e)
		})
		want := uniproc.Word(1)
		if nodedup {
			want = 2 // replayed the surviving record on top of the in-place apply
		}
		if got != want {
			t.Errorf("nodedup=%v: effects after reboot = %d, want %d", nodedup, got, want)
		}
	}
}

func TestResilientDegradedShedsWrites(t *testing.T) {
	d := newDurable(1)
	s := bootResilient(t, d, ResilientConfig{Clients: 1},
		func(e *uniproc.Env, s *ResilientServer) {
			if err := s.Apply(e, 0, 1); err != nil {
				t.Errorf("apply: %v", err)
			}
			s.SetDegraded(true)
			if err := s.Apply(e, 0, 2); !errors.Is(err, ErrDegraded) {
				t.Errorf("degraded apply: err = %v, want ErrDegraded", err)
			}
			if got := s.Effects(e); got != 1 {
				t.Errorf("degraded read = %d, want 1 (reads still serve)", got)
			}
			s.SetDegraded(false)
			if err := s.Apply(e, 0, 2); err != nil {
				t.Errorf("re-promoted apply: %v", err)
			}
		})
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("stats = %+v, want 1 shed", st)
	}
}

// With no worker running, every client's reply deadline must expire and
// Apply must return ErrDeadline; once perShard clients are in flight on
// one shard, the admission limit is taken and one more client must be
// shed with ErrOverload.
func TestResilientDeadlineAndOverload(t *testing.T) {
	d := newDurable(perShard + 1)
	p := uniproc.New(uniproc.Config{Quantum: 4096, JitterSeed: 7})
	p.EnablePersistence()
	pkg := cthreads.New(core.NewRAS())
	s := NewResilient(pkg, ResilientConfig{Clients: perShard + 1, Shards: 1},
		d.arena, d.applied, &d.effects)
	p.Go("main", func(e *uniproc.Env) {
		if err := s.Recover(e); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		// Deliberately no Start: nothing will ever serve.
		for c := 0; c < perShard; c++ {
			e.Fork(fmt.Sprintf("client%d", c), func(e *uniproc.Env) {
				if err := s.Apply(e, c, 1); !errors.Is(err, ErrDeadline) {
					t.Errorf("client %d: err = %v, want ErrDeadline", c, err)
				}
			})
		}
		for s.inflight < perShard {
			e.Yield()
		}
		if err := s.Apply(e, perShard, 1); !errors.Is(err, ErrOverload) {
			t.Errorf("client %d: err = %v, want ErrOverload", perShard, err)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Timeouts != perShard || st.Shed != 1 {
		t.Errorf("stats = %+v, want %d timeouts and 1 shed", st, perShard)
	}
}

func TestResilientShutdownIdempotent(t *testing.T) {
	d := newDurable(1)
	p := uniproc.New(uniproc.Config{Quantum: 4096, JitterSeed: 7})
	p.EnablePersistence()
	pkg := cthreads.New(core.NewRAS())
	s := NewResilient(pkg, ResilientConfig{Clients: 1}, d.arena, d.applied, &d.effects)
	p.Go("main", func(e *uniproc.Env) {
		if err := s.Recover(e); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		s.Start(e)
		if err := s.Apply(e, 0, 1); err != nil {
			t.Errorf("apply: %v", err)
		}
		s.Shutdown(e)
		s.Shutdown(e)
		if err := s.Apply(e, 0, 2); !errors.Is(err, ErrStopped) {
			t.Errorf("apply after shutdown: err = %v, want ErrStopped", err)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

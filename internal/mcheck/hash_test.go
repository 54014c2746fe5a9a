package mcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// The reference hashes: a full Capture, memory image included,
// normalized, run through the checkpoint encoder and sha256'd. They
// define the equivalence relation on states that the key-based hashes
// in hash.go must keep.

// normalizeKernel zeroes the accounting in a kernel capture: the fields
// that cannot influence any future transition under the model checker's
// run conditions. Everything else passes through untouched.
func normalizeKernel(s *kernel.Snapshot) {
	s.SliceAt = 0            // absolute timer deadline: cycles + quantum
	s.Steps = 0              // the decision cursor itself
	s.Stats = kernel.Stats{} // pure accounting
	for _, t := range s.Threads {
		t.Suspensions = 0 // accounting
		t.Restarts = 0    // accounting
		// Watchdog bookkeeping: dead state without a watchdog installed.
		t.SeqPC = 0
		t.SeqRestarts = 0
		t.Extended = false
		t.BoostSlice = false
	}
	s.Machine.Stats = vmach.Stats{}
}

func refHashKernel(k *kernel.Kernel) [32]byte {
	s := k.Capture()
	normalizeKernel(s)
	s.Machine.Mem.PageFaults = 0
	return sha256.Sum256(s.Encode())
}

func refHashRebooting(k *kernel.Kernel, cursor uint64, next, boots int) [32]byte {
	h := refHashKernel(k)
	var extra [16]byte
	binary.LittleEndian.PutUint64(extra[:8], cursor)
	binary.LittleEndian.PutUint64(extra[8:], uint64(next)|uint64(boots)<<32)
	return sha256.Sum256(append(h[:], extra[:]...))
}

func refHashSMP(s *smp.System, cur int, turn uint64) [32]byte {
	snap := s.Capture()
	for _, ks := range snap.Kernels {
		normalizeKernel(ks)
	}
	snap.Mem.PageFaults = 0
	snap.Lines = nil
	enc := snap.Encode()
	extra := []byte{
		byte(cur), byte(cur >> 8),
		byte(turn), byte(turn >> 8), byte(turn >> 16), byte(turn >> 24),
		byte(turn >> 32), byte(turn >> 40), byte(turn >> 48), byte(turn >> 56),
	}
	return sha256.Sum256(append(enc, extra...))
}

// refStateHash is in.StateHash computed with the reference hashes.
func refStateHash(t *testing.T, in Instance) [32]byte {
	switch in := in.(type) {
	case *vmachInstance:
		return refHashKernel(in.k)
	case *rebootInstance:
		return refHashRebooting(in.k, in.cursor(), in.next, in.boots)
	case *switchChild:
		var h [32]byte
		if in.paused(func(il *interleaver) { h = refHashSMP(il.sys, il.next(), 0) }) {
			return h
		}
		return refStateHash(t, in.materialize())
	case *interleaver:
		return refHashSMP(in.sys, in.cur, in.turn)
	}
	t.Fatalf("no reference hash for %T", in)
	return [32]byte{}
}

// hashPairModel records, for every StateHash an explorer asks for, the
// pair (reference hash, hash).
type hashPairModel struct {
	Model
	t     *testing.T
	calls int
	toNew map[[32]byte][32]byte
	toRef map[[32]byte][32]byte
}

type hashPairInstance struct {
	Instance
	m *hashPairModel
}

func (m *hashPairModel) New(ds []Decision, opt Options) (Instance, error) {
	in, err := m.Model.New(ds, opt)
	if err != nil {
		return nil, err
	}
	return &hashPairInstance{Instance: in, m: m}, nil
}

func (in *hashPairInstance) StateHash() ([32]byte, bool) {
	h, ok := in.Instance.StateHash()
	ref := refStateHash(in.m.t, in.Instance)
	m := in.m
	m.calls++
	if prev, seen := m.toNew[ref]; seen && prev != h {
		m.t.Fatalf("hash call %d: one reference state got hashes %x and %x", m.calls, prev, h)
	}
	if prev, seen := m.toRef[h]; seen && prev != ref {
		m.t.Fatalf("hash call %d: hash %x covers reference states %x and %x", m.calls, h, prev, ref)
	}
	m.toNew[ref], m.toRef[h] = h, ref
	return h, ok
}

// TestStateHashPartition checks that the key-based state hashes
// partition states exactly as the Encode-based reference does: across
// every StateHash of each walk, reference hash and hash determine each
// other. A page whose stale digest survived a write would merge states
// the reference tells apart; a hash of accounting state would split
// states it merges.
func TestStateHashPartition(t *testing.T) {
	walks := []struct {
		model string
		over  map[string]string
		k     int
	}{
		{"counter", map[string]string{"mech": "registered"}, 2},
		{"persist", map[string]string{"workers": "1", "iters": "2"}, 1},
		{"journal", map[string]string{"mode": "redo"}, 2},
		{"smp-counter", map[string]string{"lock": "llsc"}, 2},
		{"qlock-queue", map[string]string{"variant": "mcs"}, 1},
		// The percpu walks are the ones that reach a non-empty
		// MultiRegistration table.
		{"percpu-freelist", map[string]string{"variant": "ras"}, 2},
		{"percpu-server", map[string]string{"variant": "percpu"}, 1},
	}
	for _, w := range walks {
		t.Run(w.model+"{"+paramString(w.over)+"}", func(t *testing.T) {
			t.Parallel()
			inner, err := BuildModel(w.model, w.over)
			if err != nil {
				t.Fatal(err)
			}
			m := &hashPairModel{Model: inner, t: t, toNew: map[[32]byte][32]byte{}, toRef: map[[32]byte][32]byte{}}
			rep, err := (&Explorer{Model: m, MaxDecisions: w.k}).Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("walk failed: %v", rep)
			}
			if m.calls == 0 {
				t.Fatal("the walk hashed no state")
			}
			if len(m.toRef) != rep.States {
				t.Errorf("%d distinct hashes, but the walk reports %d states", len(m.toRef), rep.States)
			}
			t.Logf("%d hashes, %d distinct states, %d pruned", m.calls, rep.States, rep.Pruned)
		})
	}
}

// pausedState is a named instance paused mid-run.
type pausedState struct {
	name string
	in   Instance
}

// pausedStates builds the two paused states the host benchmark and the
// allocation pin hash: an smp-counter{lock=hybrid} interleaver and a
// counter{mech=registered} kernel, each paused halfway through its
// undisturbed run.
func pausedStates(tb testing.TB) []pausedState {
	tb.Helper()
	var out []pausedState
	for _, w := range []struct {
		model string
		over  map[string]string
	}{
		{"smp-counter", map[string]string{"lock": "hybrid"}},
		{"counter", map[string]string{"mech": "registered"}},
	} {
		m, err := BuildModel(w.model, w.over)
		if err != nil {
			tb.Fatal(err)
		}
		probe, err := m.New(nil, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		probe.RunToEnd()
		in, err := m.New(nil, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		if in.RunTo(probe.Cursor() / 2) {
			tb.Fatalf("%s: the run ended before its midpoint", w.model)
		}
		out = append(out, pausedState{w.model + "{" + paramString(w.over) + "}", in})
	}
	return out
}

// BenchmarkStateHash is the host cost of one StateHash of a paused
// state whose memory digests are warm: the key, the digest combine and
// the sha256 over them.
func BenchmarkStateHash(b *testing.B) {
	for _, p := range pausedStates(b) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink, _ = p.in.StateHash()
			}
		})
	}
}

// hashSink keeps BenchmarkStateHash's hashes live.
var hashSink [32]byte

// Re-hashing an unchanged paused state allocates nothing: the key is
// read from the live kernels into a pooled buffer, and the memory digest
// reuses its own scratch space.
func TestStateHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	for _, p := range pausedStates(t) {
		if n := testing.AllocsPerRun(100, func() { p.in.StateHash() }); n != 0 {
			t.Errorf("%s: %v allocations per StateHash, want 0", p.name, n)
		}
	}
}

package smp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/vmach"
)

// midRunSnapshot runs a 2-CPU hybrid workload partway and captures it.
func midRunSnapshot(t testing.TB, rounds uint64) (*System, *Snapshot, uint32) {
	s, counter := buildCounter(Config{CPUs: 2}, guest.SMPHybrid, 2, 30)
	if s.RunRounds(rounds) {
		t.Fatalf("workload finished within %d rounds; pick a smaller cut", rounds)
	}
	return s, s.Capture(), counter
}

// TestSMPCheckpointRoundTrip: capture mid-run, let the original finish,
// restore the snapshot into a fresh system, finish that too — every
// statistic and the shared counter agree.
func TestSMPCheckpointRoundTrip(t *testing.T) {
	orig, snap, counter := midRunSnapshot(t, 500)
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Mem.Peek(counter), orig.Mem.Peek(counter); got != want {
		t.Errorf("counter: restored %d, original %d", got, want)
	}
	for i := range orig.CPUs {
		if restored.CPUs[i].M.Stats != orig.CPUs[i].M.Stats {
			t.Errorf("cpu%d machine stats diverged:\nrestored %+v\noriginal %+v",
				i, restored.CPUs[i].M.Stats, orig.CPUs[i].M.Stats)
		}
		if restored.CPUs[i].Stats != orig.CPUs[i].Stats {
			t.Errorf("cpu%d kernel stats diverged:\nrestored %+v\noriginal %+v",
				i, restored.CPUs[i].Stats, orig.CPUs[i].Stats)
		}
	}
}

// TestSMPCheckpointEncodeCanonical: decode then re-encode is bit-identical,
// and a snapshot restored from the decoded bytes replays like the original.
func TestSMPCheckpointEncodeCanonical(t *testing.T) {
	_, snap, _ := midRunSnapshot(t, 400)
	blob := snap.Encode()
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), blob) {
		t.Error("decode → re-encode is not bit-identical")
	}
	if len(dec.Kernels) != 2 {
		t.Fatalf("decoded %d kernels, want 2", len(dec.Kernels))
	}
	if _, err := Restore(Config{}, dec); err != nil {
		t.Fatalf("restore from decoded snapshot: %v", err)
	}
}

func TestSMPDecodeRejectsGarbage(t *testing.T) {
	_, snap, _ := midRunSnapshot(t, 300)
	blob := snap.Encode()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTSMP\x00\x00"), blob[8:]...),
		"truncated": blob[:len(blob)/2],
		"trailing":  append(append([]byte{}, blob...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeSnapshot(data); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// A system has at least one CPU: a checkpoint with none neither decodes
// nor restores, and both errors name the CPU count.
func TestSMPCheckpointRejectsZeroCPUs(t *testing.T) {
	snap := &Snapshot{Mode: CC, Mem: &vmach.MemoryImage{}}
	if _, err := DecodeSnapshot(snap.Encode()); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "0 CPUs") {
		t.Errorf("decode: err = %v, want ErrBadSnapshot naming 0 CPUs", err)
	}
	if s, err := Restore(Config{}, snap); err == nil || !strings.Contains(err.Error(), "0 CPUs") {
		t.Errorf("restore: (%v, %v), want an error naming 0 CPUs", s, err)
	}
}

// FuzzSMPCheckpoint is the decoder's safety-and-canonicality contract
// under arbitrary input: never panic, and any blob that decodes at all
// re-encodes to exactly the same bytes — including multi-CPU containers.
func FuzzSMPCheckpoint(f *testing.F) {
	for _, cpus := range []int{1, 2, 4} {
		s, _ := buildCounter(Config{CPUs: cpus}, guest.SMPHybrid, 2, 10)
		s.RunRounds(200)
		f.Add(s.Capture().Encode())
	}
	// Mid-transaction seeds: staggered odd round counts land the capture
	// inside the hybrid lock's critical section — one CPU mid-RAS-sequence
	// or holding the spinlock word — so the corpus covers containers whose
	// in-flight lock state must survive the wire, not just quiescent ones.
	for _, rounds := range []uint64{3, 57, 201} {
		s, _ := buildCounter(Config{CPUs: 2}, guest.SMPHybrid, 2, 10)
		s.RunRounds(rounds)
		f.Add(s.Capture().Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(snap.Encode(), data) {
			t.Fatalf("decode → re-encode not bit-identical for accepted input")
		}
	})
}

// RunRounds advances the system by at most n rounds, reporting whether it
// finished. Cutting a run at a round count is deterministic, which is
// what checkpoint tests want.
func (s *System) RunRounds(n uint64) (finished bool) {
	for ; n > 0; n-- {
		if s.StepRound() {
			return true
		}
	}
	return false
}

package mcheck

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// State hashing for DFS pruning. Two schedule prefixes that park the
// substrate in the same state have identical futures, so one subtree
// suffices — but "same state" must mean behaviorally same, and the
// canonical checkpoint encodings include accounting that differs between
// behaviorally identical states: cycle counters, stat tallies, the
// absolute timer deadline. normalizeKernel zeroes exactly the fields that
// cannot influence any future transition under the model checker's run
// conditions — an effectively infinite quantum (no timer preemption), no
// watchdog, no page evictions, a cycle budget far above any bounded run.
// Everything behavioral (registers, PCs, memory words, run queue order,
// wait queues, registration ranges, ll/sc reservations, write buffers)
// passes through untouched.
//
// A hash covers two parts. The non-memory state is captured without the
// memory image (CaptureWithoutMemory), normalized and encoded; it is a
// few hundred bytes per thread. Memory, the bulk of the state, enters as
// vmach.Memory.Digest, which re-hashes only the pages written since the
// last hash; its PageFaults counter, accounting like the rest, is left
// out. Two states get the same hash exactly when their normalized full
// checkpoint encodings are equal, the relation hash_test.go pins against
// an Encode-based reference.

func normalizeKernel(s *kernel.Snapshot) {
	s.SliceAt = 0            // absolute timer deadline: cycles + quantum
	s.Steps = 0              // the decision cursor itself
	s.Stats = kernel.Stats{} // pure accounting
	for i := range s.Threads {
		t := &s.Threads[i]
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

// hashKernel is the canonical state hash of a paused kernel, extended by
// extra, the model's own behavioral state (fixed-length per model).
func hashKernel(k *kernel.Kernel, extra ...byte) [32]byte {
	s := k.CaptureWithoutMemory()
	normalizeKernel(s)
	mem := k.M.Mem.Digest()
	b := append(s.Encode(), mem[:]...)
	return sha256.Sum256(append(b, extra...))
}

// hashRebooting hashes a paused kernel of a model that crashes and
// reboots. normalizeKernel zeroes the machine stats, which is exactly
// where the persist-op cursor lives, and two runs paused in identical
// kernel states still differ if their remaining crash schedules start at
// different ordinals (cursor, next decision) or boot counts.
func hashRebooting(k *kernel.Kernel, cursor uint64, next, boots int) [32]byte {
	var extra [16]byte
	binary.LittleEndian.PutUint64(extra[:8], cursor)
	binary.LittleEndian.PutUint64(extra[8:], uint64(next)|uint64(boots)<<32)
	return hashKernel(k, extra[:]...)
}

// hashSMP hashes a paused SMP system plus the model checker's own
// scheduler state (which CPU holds the interleaving and how far into its
// turn it is — behavioral state the snapshot doesn't carry). The
// coherence directory is left out: it only modulates cycle costs, never
// values or control flow, and cycles are themselves normalized away.
func hashSMP(s *smp.System, cur int, turn uint64) [32]byte {
	var b []byte
	for _, k := range s.CPUs {
		ks := k.CaptureWithoutMemory()
		normalizeKernel(ks)
		enc := ks.Encode()
		b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
		b = append(b, enc...)
	}
	mem := s.Mem.Digest()
	b = append(b, mem[:]...)
	b = binary.LittleEndian.AppendUint16(b, uint16(cur))
	b = binary.LittleEndian.AppendUint64(b, turn)
	return sha256.Sum256(b)
}

package mcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// State hashing for DFS pruning. Two schedule prefixes that park the
// substrate in the same state have identical futures, so one subtree
// suffices — but "same state" must mean behaviorally same, not equal
// checkpoints: a checkpoint also carries accounting that differs between
// behaviorally identical states (cycle counters, stat tallies, the
// absolute timer deadline), none of which can influence a future
// transition under the model checker's run conditions — an effectively
// infinite quantum (no timer preemption), no watchdog, no page
// evictions, a cycle budget far above any bounded run.
//
// A hash is the sha256 of a key with three parts:
//
//   - kernel.Kernel.AppendStateKey, per kernel: the checkpoint's field
//     walk run in key mode, an injective encoding of exactly the
//     behavioral non-memory state — registers, PCs, thread states, run
//     queue order, wait queues, registration ranges, ll/sc reservations,
//     write buffers — read from the live structs. Which fields are
//     accounting is decided in the walk itself, which visits them only
//     when vmach.Codec.Accounting reports true, so key and checkpoint
//     cannot disagree on what state is;
//   - vmach.Memory.Digest: memory, the bulk of the state, re-hashing only
//     the pages written since the last hash (its PageFaults counter,
//     accounting like the rest, is left out);
//   - the model's own behavioral state, fixed-length per model.
//
// The key is assembled in a pooled buffer, so a warm hash allocates
// nothing. Two states get the same hash exactly when their full
// checkpoints, accounting zeroed, encode equally: the relation
// hash_test.go pins against an Encode-based reference, and
// TestStateKeyFields checks the walks' classification of every field.

// keyBufs recycles the buffers keys are assembled in.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// hashKernel is the canonical state hash of a paused kernel, extended by
// extra, the model's own behavioral state (fixed-length per model).
func hashKernel(k *kernel.Kernel, extra ...byte) [32]byte {
	buf := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(buf)
	b := k.AppendStateKey((*buf)[:0])
	mem := k.M.Mem.Digest()
	b = append(b, mem[:]...)
	*buf = append(b, extra...)
	return sha256.Sum256(*buf)
}

// hashRebooting hashes a paused kernel of a model that crashes and
// reboots. The persist-op cursor lives in the machine stats, which the
// key leaves out, and two runs paused in identical kernel states still
// differ if their remaining crash schedules start at different ordinals
// (cursor, next decision) or boot counts.
func hashRebooting(k *kernel.Kernel, cursor uint64, next, boots int) [32]byte {
	var extra [16]byte
	binary.LittleEndian.PutUint64(extra[:8], cursor)
	binary.LittleEndian.PutUint64(extra[8:], uint64(next)|uint64(boots)<<32)
	return hashKernel(k, extra[:]...)
}

// hashSMP hashes a paused SMP system plus the model checker's own
// scheduler state (which CPU holds the interleaving and how far into its
// turn it is — behavioral state the kernels don't carry). The coherence
// directory is left out: it only modulates cycle costs, never values or
// control flow, and cycles are themselves accounting.
func hashSMP(s *smp.System, cur int, turn uint64) [32]byte {
	buf := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(buf)
	b := (*buf)[:0]
	for _, k := range s.CPUs {
		b = k.AppendStateKey(b)
	}
	mem := s.Mem.Digest()
	b = append(b, mem[:]...)
	b = binary.LittleEndian.AppendUint16(b, uint16(cur))
	*buf = binary.LittleEndian.AppendUint64(b, turn)
	return sha256.Sum256(*buf)
}

package smp

import (
	"errors"
	"fmt"

	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// An SMP checkpoint is a container around the per-CPU kernel checkpoints:
// each CPU's kernel snapshot is embedded with its memory image stripped
// (the memory is shared, so it is encoded exactly once at the container
// level), followed by the shared memory and the coherence directory.
// Like the kernel format it is canonical — decode then re-encode is
// bit-identical — which FuzzSMPCheckpoint checks.

const (
	smpMagic = "RASSMP\x00\x00"
	// Version 2 tracks the kernel checkpoint format's v3 bump: the shared
	// memory image it embeds (which carries no header of its own) grew
	// persistence sections. Version-1 blobs are rejected — the embedded
	// layout is ambiguous without the bump.
	smpVersion = 2
)

// ErrBadSnapshot matches (with errors.Is) every SMP snapshot decode error.
var ErrBadSnapshot = errors.New("smp: malformed snapshot")

// Snapshot is a value snapshot of a whole system. As with the kernel
// layer, harness wiring (tracers, injectors) is absent and resupplied by
// the restoring Config.
type Snapshot struct {
	Mode    Mode
	Costs   Costs
	Kernels []*kernel.Snapshot // per CPU, memory images stripped
	Mem     *vmach.MemoryImage // the shared memory, once
	Lines   []LineImage        // coherence directory, sorted by line
}

// Capture snapshots the system. The system may keep running without
// disturbing the snapshot.
func (s *System) Capture() *Snapshot {
	snap := &Snapshot{
		Mode:  s.Coh.mode,
		Costs: s.Coh.costs,
		Mem:   s.Mem.Capture(),
		Lines: s.Coh.capture(),
	}
	for _, k := range s.CPUs {
		snap.Kernels = append(snap.Kernels, k.CaptureWithoutMemory())
	}
	return snap
}

// Restore builds a system from cfg and installs the snapshot. The CPU
// count, coherence mode and costs come from the snapshot; cfg supplies
// the profile, strategies, quantum and harness wiring, which must match
// the capturing config for the replay to be exact. A snapshot with no
// CPUs is refused.
func Restore(cfg Config, snap *Snapshot) (*System, error) {
	if len(snap.Kernels) == 0 {
		return nil, errors.New("smp: snapshot has 0 CPUs")
	}
	cfg.Mode, cfg.Costs = snap.Mode, snap.Costs
	cfg = defaultedConfig(cfg)
	cfg.CPUs = len(snap.Kernels)
	s, err := build(cfg, func(i int, kcfg kernel.Config) (*kernel.Kernel, error) {
		k, err := kernel.Restore(kcfg, snap.Kernels[i])
		if err != nil {
			return nil, fmt.Errorf("smp: cpu%d: %w", i, err)
		}
		return k, nil
	})
	if err != nil {
		return nil, err
	}
	// The per-CPU restores each wiped the shared memory with their empty
	// images; install the real contents (and the directory) last.
	s.Mem.Restore(snap.Mem)
	s.Coh.restore(snap.Lines)
	return s, nil
}

// walk is the container's field walk: each CPU's kernel snapshot and
// the shared memory image are length-prefixed sections, so a defect in
// one cannot spill into the next.
func (s *Snapshot) walk(c *vmach.Codec) {
	c.Magic(smpMagic, smpVersion)
	mode := uint32(s.Mode)
	c.U32(&mode)
	if s.Mode = Mode(mode); c.Decoding() && s.Mode != CC && s.Mode != DSM {
		c.Fail("unknown mode %d", s.Mode)
	}
	c.U64(&s.Costs.Local)
	c.U64(&s.Costs.Remote)
	c.U64(&s.Costs.Invalidate)
	if n := vmach.Items(c, &s.Kernels, 4); c.Decoding() && n == 0 {
		c.Fail("%d CPUs", n)
	}
	for i := range s.Kernels {
		if s.Kernels[i] == nil {
			s.Kernels[i] = &kernel.Snapshot{}
		}
		c.Sized(s.Kernels[i].Walk)
	}
	if s.Mem == nil {
		s.Mem = &vmach.MemoryImage{}
	}
	c.Sized(s.Mem.Walk)
	for i := range vmach.Items(c, &s.Lines, 20) {
		l := &s.Lines[i]
		c.U32(&l.LN)
		c.I32(&l.Home)
		c.I32(&l.Writer)
		c.U64(&l.Sharers)
		if c.Decoding() && i > 0 && l.LN <= s.Lines[i-1].LN {
			c.Fail("line table not strictly sorted")
		}
	}
}

// Encode serializes the snapshot canonically.
func (s *Snapshot) Encode() []byte {
	c := vmach.Encoder(nil)
	s.walk(&c)
	return c.Bytes()
}

// DecodeSnapshot parses an encoded SMP checkpoint. Malformed input —
// truncation, bad magic, bad version, zero CPUs, an embedded kernel
// snapshot that does not decode, trailing bytes — yields an error matching
// ErrBadSnapshot; the decoder never panics on garbage.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	c := vmach.Decoder(data, ErrBadSnapshot)
	if s.walk(&c); c.Err() != nil {
		return nil, c.Err()
	}
	return s, nil
}

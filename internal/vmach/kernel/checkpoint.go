package kernel

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/vmach"
)

// The checkpoint wire format is the snapshot's field walk (Snapshot.Walk)
// run by a vmach.Codec: canonical little-endian binary behind a
// magic/version header, so decode followed by re-encode is bit-identical
// — the property FuzzCheckpoint checks. The same walk in key mode is the
// model checker's state key.

const (
	checkpointMagic = "RASCKPT\x00"
	// Version 2 added the machine's ll/sc reservation and the coherence
	// counters (RMRs, CoherenceCycles) to MachineImage. Version-1 blobs
	// are rejected rather than migrated: the format is canonical, and a
	// silent zero-fill would forge coherence history.
	//
	// Version 3 added the NVRAM persistence split: the flush/fence machine
	// stats and the memory image's volatile/persistent sections (NVM line
	// images and pending write-backs). It is the only version decoded;
	// older blobs are rejected like version 1.
	checkpointVersion = 3
)

// ErrBadCheckpoint matches (with errors.Is) every checkpoint decode error.
var ErrBadCheckpoint = errors.New("kernel: malformed checkpoint")

// RasImage is one address space's registered sequence (Registration
// strategy). The kernel keeps its entries sorted by address space.
type RasImage struct {
	AS            int32
	Start, Length uint32
}

// RangeImage is one entry of a MultiRegistration table, kept in
// registration order (the check is a linear scan, so order is state).
type RangeImage struct {
	Start, Length uint32
}

// WaitImage is one mutex wait queue: the mutex word address and the
// blocked thread IDs in FIFO order. Queues are sorted by address in a
// capture.
type WaitImage struct {
	Addr uint32
	TIDs []int32
}

// Snapshot is a value snapshot of a whole kernel-plus-machine: a
// checkpoint. Capturing after a crash (or at any deterministic step cut,
// see RunSteps) and restoring into a fresh kernel replays the remainder of
// the run exactly — same stats, same console, same memory.
//
// Harness state is deliberately absent: the tracer, death callbacks,
// memory watchpoints, and the fault injector are wiring, not machine
// state; the restorer supplies them through Config. The injector's cursors
// (Steps, Stats.Switches, Stats.Suspensions) are captured, so a stateless
// seeded plan resumes mid-schedule without replaying spent faults.
type Snapshot struct {
	Strategy       string // must match the restoring Config's strategy
	Quantum        uint64
	SliceAt        uint64
	Steps          uint64
	CurID          int32 // running thread ID, -1 between timeslices
	UserHandler    uint32
	HasUserHandler bool
	Stats          Stats
	Console        []isa.Word
	Threads        []*ThreadImage
	RunQ           []int32
	Ras            []RasImage
	MultiRanges    []RangeImage
	Waits          []WaitImage
	Machine        *vmach.MachineImage
}

// threadImageSize is a lower bound on one encoded ThreadImage, used to
// reject absurd length prefixes early.
const threadImageSize = 4 + (isa.NumRegs*4 + 4 + 1 + 4 + 8) + 4 + 4 + 4 + 4 + 8 + 8 + 1 + 4 + 8 + 1 + 1

// Walk is the snapshot's field walk, header included. The accounting it
// marks is the timer deadline (SliceAt), the step cursor and the Stats;
// the SMP container walks each CPU's snapshot through it.
func (s *Snapshot) Walk(c *vmach.Codec) {
	c.Magic(checkpointMagic, checkpointVersion)
	c.Str(&s.Strategy)
	c.U64(&s.Quantum)
	if c.Accounting() {
		c.U64(&s.SliceAt)
		c.U64(&s.Steps)
	}
	c.I32(&s.CurID)
	c.U32(&s.UserHandler)
	c.Bool(&s.HasUserHandler)
	if c.Accounting() {
		s.Stats.walk(c)
	}
	vmach.Items(c, &s.Console, 4)
	c.Words(s.Console)
	for i := range vmach.Items(c, &s.Threads, threadImageSize) {
		if s.Threads[i] == nil {
			s.Threads[i] = &ThreadImage{}
		}
		s.Threads[i].walk(c)
	}
	for i := range vmach.Items(c, &s.RunQ, 4) {
		c.I32(&s.RunQ[i])
	}
	for i := range vmach.Items(c, &s.Ras, 12) {
		r := &s.Ras[i]
		c.I32(&r.AS)
		c.U32(&r.Start)
		c.U32(&r.Length)
	}
	for i := range vmach.Items(c, &s.MultiRanges, 8) {
		c.U32(&s.MultiRanges[i].Start)
		c.U32(&s.MultiRanges[i].Length)
	}
	for i := range vmach.Items(c, &s.Waits, 8) {
		w := &s.Waits[i]
		c.U32(&w.Addr)
		for j := range vmach.Items(c, &w.TIDs, 4) {
			c.I32(&w.TIDs[j])
		}
	}
	if s.Machine == nil {
		s.Machine = &vmach.MachineImage{}
	}
	s.Machine.Walk(c)
}

// walk is the thread image's field walk. Its accounting is the
// suspension and restart counts and the watchdog bookkeeping.
func (t *ThreadImage) walk(c *vmach.Codec) {
	c.I32(&t.AS)
	t.Ctx.Walk(c)
	state := int32(t.State)
	if c.I32(&state); c.Decoding() {
		t.State = ThreadState(state)
	}
	c.U32(&t.ExitCode)
	c.I32(&t.FaultKind)
	c.U32(&t.FaultAddr)
	if c.Accounting() {
		c.U64(&t.Suspensions)
		c.U64(&t.Restarts)
	}
	c.Bool(&t.NeedsCheck)
	if c.Accounting() {
		c.U32(&t.SeqPC)
		c.U64(&t.SeqRestarts)
		c.Bool(&t.Extended)
		c.Bool(&t.BoostSlice)
	}
}

// walk is the kernel stats' field walk, in declaration order;
// TestCheckpointCoversAllStats catches a field it misses.
func (s *Stats) walk(c *vmach.Codec) {
	for _, v := range []*uint64{
		&s.Suspensions, &s.Preemptions, &s.PageFaults, &s.Restarts,
		&s.EmulTraps, &s.Syscalls, &s.Switches, &s.CheckRejects,
		&s.HardwareResets, &s.SlowAcquires, &s.MutexWakes, &s.Spurious,
		&s.Injected, &s.WatchdogExtends, &s.WatchdogAborts, &s.Kills,
	} {
		c.U64(v)
	}
}

// Encode serializes the snapshot. The encoding of a given snapshot is a
// pure function of its value: two equal snapshots encode to identical
// bytes.
func (s *Snapshot) Encode() []byte {
	// Sized for the common snapshot, so the walk rarely grows it.
	c := vmach.Encoder(make([]byte, 0, 512+threadImageSize*len(s.Threads)+len(s.Machine.Mem.Pages)*(4+vmach.PageSize)))
	s.Walk(&c)
	return c.Bytes()
}

// DecodeSnapshot parses an encoded checkpoint. Every structural defect —
// truncation, bad magic, unknown version, oversized lengths, non-canonical
// booleans, trailing bytes — is reported as an error wrapping
// ErrBadCheckpoint; the decoder never panics on garbage.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	c := vmach.Decoder(data, ErrBadCheckpoint)
	if s.Walk(&c); c.Err() != nil {
		return nil, c.Err()
	}
	return s, nil
}

// Capture snapshots the kernel and its machine. The snapshot is a value
// copy: the kernel may keep running without disturbing it.
func (k *Kernel) Capture() *Snapshot {
	s := k.CaptureWithoutMemory()
	s.Machine.Mem = k.M.Mem.Capture()
	return s
}

// CaptureWithoutMemory is Capture with the machine's memory image left
// empty. The SMP container captures its shared memory once on its own.
func (k *Kernel) CaptureWithoutMemory() *Snapshot {
	s := &Snapshot{Machine: &vmach.MachineImage{Mem: &vmach.MemoryImage{}}}
	k.captureInto(s)
	imgs := make([]ThreadImage, len(s.Threads))
	for i, t := range s.Threads { // detach the images from the live threads
		imgs[i] = *t
		s.Threads[i] = &imgs[i]
	}
	return s
}

// captureInto captures all but the memory image into s, reusing s's
// slices, so a warm scratch snapshot costs no allocation; a fresh one's
// empty slices stay nil. The thread images are the live threads' own.
func (k *Kernel) captureInto(s *Snapshot) {
	s.Strategy = k.Strategy.Name()
	s.Quantum, s.SliceAt, s.Steps = k.Quantum, k.sliceAt, k.steps
	s.CurID = -1
	if k.cur != nil {
		s.CurID = int32(k.cur.ID)
	}
	s.UserHandler, s.HasUserHandler = k.userHandler, k.hasUserHandler
	s.Stats = k.Stats
	s.Console = append(s.Console[:0], k.Console...)
	s.Threads = s.Threads[:0]
	for _, t := range k.threads {
		s.Threads = append(s.Threads, &t.ThreadImage)
	}
	s.RunQ = s.RunQ[:0]
	for _, t := range k.runq {
		s.RunQ = append(s.RunQ, int32(t.ID))
	}
	s.Ras = append(s.Ras[:0], k.ras...)
	s.MultiRanges = s.MultiRanges[:0]
	if mr, ok := k.Strategy.(*MultiRegistration); ok {
		for _, r := range mr.ranges {
			s.MultiRanges = append(s.MultiRanges, RangeImage{Start: r.start, Length: r.length})
		}
	}
	// The wait queues are sorted in a stack array: a state has a handful
	// of mutexes, so the sort allocates nothing.
	var addrs [8]uint32
	waits := s.Waits[:0]
	for _, addr := range vmach.SortedKeys(addrs[:0], k.waitq) {
		w := WaitImage{Addr: addr}
		if len(waits) < cap(waits) { // reuse the scratch queue's array
			w.TIDs = waits[:len(waits)+1][len(waits)].TIDs[:0]
		}
		for _, t := range k.waitq[addr] {
			w.TIDs = append(w.TIDs, int32(t.ID))
		}
		waits = append(waits, w)
	}
	s.Waits = waits
	k.M.CaptureInto(s.Machine)
}

// keyViews recycles the scratch snapshots AppendStateKey captures into.
var keyViews = sync.Pool{New: func() any {
	return &Snapshot{Machine: &vmach.MachineImage{Mem: &vmach.MemoryImage{}}}
}}

// AppendStateKey appends to b a key of the kernel's behavioral state:
// its capture, walked in key mode, so without the memory image (hashed
// through vmach.Memory.Digest) and the fields the walks mark as
// accounting, none of which influences a future transition under the
// model checker's run conditions (no timer preemption, no watchdog, no
// evictions, a cycle budget far above any run). The key is
// self-delimiting, so several kernels' keys concatenate injectively. A
// warm call allocates nothing.
func (k *Kernel) AppendStateKey(b []byte) []byte {
	s := keyViews.Get().(*Snapshot)
	k.captureInto(s)
	c := vmach.Keyer(b)
	s.Walk(&c)
	clear(s.Threads) // keep the live threads out of the pool
	keyViews.Put(s)
	return c.Bytes()
}

// Restore builds a kernel from cfg and installs the snapshot's state into
// it. The config must name the same strategy and machine profile the
// snapshot was captured under (a silent mismatch would diverge the
// replay); tracers, death callbacks, and fault injectors come fresh from
// cfg. A crash recorded at capture time is not part of the snapshot — the
// restored kernel resumes as if the crash never happened, which is the
// whole point.
func Restore(cfg Config, s *Snapshot) (*Kernel, error) {
	k := New(cfg)
	if got := k.Strategy.Name(); got != s.Strategy {
		return nil, fmt.Errorf("kernel: snapshot captured under strategy %q, restored with %q", s.Strategy, got)
	}
	if s.Quantum == 0 {
		return nil, fmt.Errorf("kernel: snapshot has a zero quantum")
	}
	if err := k.M.Restore(s.Machine); err != nil {
		return nil, err
	}
	k.Quantum = s.Quantum
	k.sliceAt = s.SliceAt
	k.steps = s.Steps
	k.userHandler = s.UserHandler
	k.hasUserHandler = s.HasUserHandler
	k.Stats = s.Stats
	k.Console = append([]isa.Word(nil), s.Console...)

	for i, ti := range s.Threads {
		t := &Thread{ID: i, ThreadImage: *ti}
		if t.FaultKind < 0 { // any negative kind records no fault
			t.FaultKind = -1
		}
		k.threads = append(k.threads, t)
	}
	// A thread is running, queued or waiting on one mutex, never two of
	// them: a thread named twice would be dispatched twice.
	var err error
	named := make([]bool, len(k.threads))
	thread := func(id int32, where string) *Thread {
		switch {
		case err != nil:
		case id < 0 || int(id) >= len(k.threads):
			err = fmt.Errorf("kernel: snapshot %s names thread %d of %d", where, id, len(k.threads))
		case named[id]:
			err = fmt.Errorf("kernel: snapshot %s names thread %d a second time", where, id)
		default:
			named[id] = true
			return k.threads[id]
		}
		return nil
	}
	if s.CurID >= 0 {
		k.cur = thread(s.CurID, "current")
	}
	for _, id := range s.RunQ {
		k.runq = append(k.runq, thread(id, "run queue"))
	}
	for _, r := range s.Ras {
		k.setRas(r.AS, r.Start, r.Length)
	}
	if len(s.MultiRanges) > 0 {
		mr, ok := k.Strategy.(*MultiRegistration)
		if !ok {
			return nil, fmt.Errorf("kernel: snapshot carries a multi-registration table but the strategy is %q", k.Strategy.Name())
		}
		for _, r := range s.MultiRanges {
			mr.AddRange(r.Start, r.Length)
		}
	}
	for _, w := range s.Waits {
		q := make([]*Thread, 0, len(w.TIDs))
		for _, id := range w.TIDs {
			q = append(q, thread(id, "wait queue"))
		}
		k.waitq[w.Addr] = q
		k.blocked += len(q)
	}
	if err != nil {
		return nil, err
	}
	return k, nil
}

package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/vmach"
)

// ThreadImage is the captured state of one thread: everything the scheduler
// and the recovery machinery know about it, including the watchdog streak.
// FaultKind is -1 when the thread has no recorded fault.
type ThreadImage struct {
	AS          int32
	Ctx         vmach.Context
	State       ThreadState
	ExitCode    isa.Word
	FaultKind   int32
	FaultAddr   uint32
	Suspensions uint64
	Restarts    uint64
	NeedsCheck  bool
	SeqPC       uint32
	SeqRestarts uint64
	Extended    bool
	BoostSlice  bool
}

// RasImage is one address space's registered sequence (Registration
// strategy). Entries are sorted by address space in a capture.
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
	Threads        []ThreadImage
	RunQ           []int32
	Ras            []RasImage
	MultiRanges    []RangeImage
	Waits          []WaitImage
	Machine        *vmach.MachineImage
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
	s := &Snapshot{
		Strategy:       k.Strategy.Name(),
		Quantum:        k.Quantum,
		SliceAt:        k.sliceAt,
		Steps:          k.steps,
		CurID:          -1,
		UserHandler:    k.userHandler,
		HasUserHandler: k.hasUserHandler,
		Stats:          k.Stats,
		Console:        append([]isa.Word(nil), k.Console...),
		Machine:        k.M.CaptureWithoutMemory(),
	}
	if k.cur != nil {
		s.CurID = int32(k.cur.ID)
	}
	for _, t := range k.threads {
		ti := ThreadImage{
			AS:          int32(t.AS),
			Ctx:         t.Ctx,
			State:       t.State,
			ExitCode:    t.ExitCode,
			FaultKind:   -1,
			Suspensions: t.Suspensions,
			Restarts:    t.Restarts,
			NeedsCheck:  t.needsCheck,
			SeqPC:       t.seqPC,
			SeqRestarts: t.seqRestarts,
			Extended:    t.extended,
			BoostSlice:  t.boostSlice,
		}
		if t.Fault != nil {
			ti.FaultKind = int32(t.Fault.Kind)
			ti.FaultAddr = t.Fault.Addr
		}
		s.Threads = append(s.Threads, ti)
	}
	for _, t := range k.runq {
		s.RunQ = append(s.RunQ, int32(t.ID))
	}
	for _, as := range sortedKeys(nil, k.rasBySpace) {
		r := k.rasBySpace[as]
		s.Ras = append(s.Ras, RasImage{AS: int32(as), Start: r.start, Length: r.length})
	}
	if mr, ok := k.Strategy.(*MultiRegistration); ok {
		for _, r := range mr.ranges {
			s.MultiRanges = append(s.MultiRanges, RangeImage{Start: r.start, Length: r.length})
		}
	}
	for _, addr := range sortedKeys(nil, k.waitq) {
		w := WaitImage{Addr: addr}
		for _, t := range k.waitq[addr] {
			w.TIDs = append(w.TIDs, int32(t.ID))
		}
		s.Waits = append(s.Waits, w)
	}
	return s
}

// AppendStateKey appends to b a key of the kernel's behavioral state,
// read straight from the live kernel: every field a Capture records
// except the memory image, which is hashed through vmach.Memory.Digest,
// and the accounting — the timer deadline (SliceAt), the step cursor,
// the kernel and machine Stats, the per-thread suspension and restart
// counts and the watchdog bookkeeping. Under the model checker's run
// conditions (no timer preemption, no watchdog, no evictions, a cycle
// budget far above any run) none of those influences a future
// transition. TestStateKeyFields pins which Snapshot fields are which.
//
// The key is self-delimiting, so the keys of several kernels concatenate
// injectively, and two kernels append equal keys exactly when their
// captures agree on every keyed field.
func (k *Kernel) AppendStateKey(b []byte) []byte {
	e := encoder{b: b}
	e.str(k.Strategy.Name())
	e.u64(k.Quantum)
	if k.cur != nil {
		e.i32(int32(k.cur.ID))
	} else {
		e.i32(-1)
	}
	e.u32(k.userHandler)
	e.boolean(k.hasUserHandler)
	e.u32(uint32(len(k.Console)))
	for _, w := range k.Console {
		e.u32(uint32(w))
	}
	e.u32(uint32(len(k.threads)))
	for _, t := range k.threads {
		e.i32(int32(t.AS))
		encodeContext(&e, &t.Ctx)
		e.i32(int32(t.State))
		e.u32(uint32(t.ExitCode))
		if t.Fault != nil {
			e.i32(int32(t.Fault.Kind))
			e.u32(t.Fault.Addr)
		} else {
			e.i32(-1)
			e.u32(0)
		}
		e.boolean(t.needsCheck)
	}
	e.u32(uint32(len(k.runq)))
	for _, t := range k.runq {
		e.i32(int32(t.ID))
	}
	// The map keys are sorted in stack arrays: a state has a handful of
	// address spaces and mutexes, so the sorts allocate nothing.
	var spaces [8]int
	e.u32(uint32(len(k.rasBySpace)))
	for _, as := range sortedKeys(spaces[:0], k.rasBySpace) {
		r := k.rasBySpace[as]
		e.i32(int32(as))
		e.u32(r.start)
		e.u32(r.length)
	}
	var ranges []rasRange
	if mr, ok := k.Strategy.(*MultiRegistration); ok {
		ranges = mr.ranges
	}
	e.u32(uint32(len(ranges)))
	for _, r := range ranges {
		e.u32(r.start)
		e.u32(r.length)
	}
	var addrs [8]uint32
	e.u32(uint32(len(k.waitq)))
	for _, addr := range sortedKeys(addrs[:0], k.waitq) {
		q := k.waitq[addr]
		e.u32(addr)
		e.u32(uint32(len(q)))
		for _, t := range q {
			e.i32(int32(t.ID))
		}
	}
	return k.M.AppendStateKey(e.b)
}

// sortedKeys appends the keys of km to dst in ascending order.
func sortedKeys[K cmp.Ordered, V any](dst []K, km map[K]V) []K {
	for k := range km {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
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

	for i := range s.Threads {
		ti := &s.Threads[i]
		t := &Thread{
			ID:          i,
			AS:          int(ti.AS),
			Ctx:         ti.Ctx,
			State:       ti.State,
			ExitCode:    ti.ExitCode,
			Suspensions: ti.Suspensions,
			Restarts:    ti.Restarts,
			needsCheck:  ti.NeedsCheck,
			seqPC:       ti.SeqPC,
			seqRestarts: ti.SeqRestarts,
			extended:    ti.Extended,
			boostSlice:  ti.BoostSlice,
		}
		if ti.FaultKind >= 0 {
			t.Fault = &vmach.Fault{Kind: vmach.FaultKind(ti.FaultKind), Addr: ti.FaultAddr}
		}
		k.threads = append(k.threads, t)
	}
	thread := func(id int32, where string) (*Thread, error) {
		if id < 0 || int(id) >= len(k.threads) {
			return nil, fmt.Errorf("kernel: snapshot %s names thread %d of %d", where, id, len(k.threads))
		}
		return k.threads[id], nil
	}
	if s.CurID >= 0 {
		t, err := thread(s.CurID, "current")
		if err != nil {
			return nil, err
		}
		k.cur = t
	}
	for _, id := range s.RunQ {
		t, err := thread(id, "run queue")
		if err != nil {
			return nil, err
		}
		k.runq = append(k.runq, t)
	}
	for _, r := range s.Ras {
		k.rasBySpace[int(r.AS)] = rasRange{r.Start, r.Length}
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
			t, err := thread(id, "wait queue")
			if err != nil {
				return nil, err
			}
			q = append(q, t)
		}
		k.waitq[w.Addr] = q
		k.blocked += len(q)
	}
	return k, nil
}

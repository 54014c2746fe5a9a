package qlock

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// WorkerOpt is one worker's rendezvous role, used by tests and the
// mcheck models to force queue overlap deterministically. Peers are
// worker indexes (== CPU numbers); -1 means none. A worker uses at
// most one of the three relationships.
type WorkerOpt struct {
	WaitHeldPeer  int // enqueue only after this peer reaches its CS
	WaitEnqPeer   int // enqueue only after this peer has enqueued
	HoldForPeer   int // stretch the CS until this peer has enqueued
	HoldAbortPeer int // stretch the CS until this peer aborts, finishes or dies
}

// NoPeer is the WorkerOpt with no rendezvous at all.
var NoPeer = WorkerOpt{WaitHeldPeer: -1, WaitEnqPeer: -1, HoldForPeer: -1, HoldAbortPeer: -1}

// WaitHeld enqueues only after peer holds the lock.
func WaitHeld(peer int) WorkerOpt { w := NoPeer; w.WaitHeldPeer = peer; return w }

// WaitEnq enqueues only after peer has enqueued.
func WaitEnq(peer int) WorkerOpt { w := NoPeer; w.WaitEnqPeer = peer; return w }

// HoldFor stretches the critical section until peer has enqueued.
func HoldFor(peer int) WorkerOpt { w := NoPeer; w.HoldForPeer = peer; return w }

// Config parametrizes one qlock run: one worker per CPU (the spin
// loops never yield, so a CPU must not host two contenders), each
// making Iters lock passages.
type Config struct {
	Variant  Variant
	CPUs     int
	Iters    int
	Mode     smp.Mode
	Audit    bool // keep the enqueue/CS order logs (adds O(1) RMRs/passage)
	TryBound int  // nonzero: TryAcquire with this spin budget per passage
	// Workers, when non-nil, gives per-worker rendezvous roles;
	// len(Workers) must equal CPUs.
	Workers   []WorkerOpt
	MaxCycles uint64
	Quantum   uint64
	Faults    func(cpu int) chaos.Injector
}

func (c Config) defaulted() Config {
	if c.CPUs < 1 {
		c.CPUs = 1
	}
	if c.Iters < 1 {
		c.Iters = 1
	}
	return c
}

// Run is a fully assembled run: the system, its program, and the
// qnode/worker bookkeeping needed to collect results or kill threads.
type Run struct {
	Cfg  Config
	Sys  *smp.System
	Prog ProgramInfo
}

// ProgramInfo carries the assembled program's symbols so a Run can be
// re-collected after a checkpoint Restore (which rebuilds the system
// but not the program).
type ProgramInfo struct {
	Counter, Qtail, Qowner, Qnodes, Lats, Turns, Enqlog, Turnidx, Enqseq uint32
	Entry                                                                uint32
}

// Result is what one run produced, peeled out of guest memory.
type Result struct {
	Variant  Variant
	CPUs     int
	Mode     smp.Mode
	Counter  uint64 // the shared counter's final value
	Passages uint64 // sum of per-thread completion counters
	Mine     []uint64
	Repairs  uint64 // dead-owner steals (epoch bumps)
	Splices  uint64 // dead/aborted nodes spliced past (both sides)
	Fallback uint64 // waiter falls back to direct owner competition
	Aborts   uint64 // TryAcquire aborts
	Scans    uint64 // release-side successor scans
	Alive    int    // workers alive (exited normally) at the end
	Cycles   uint64
	RMRs     uint64
	CSOrder  []int // audit: global tids in CS entry order
	EnqOrder []int // audit: global tids in ticket order (diagnostic)
	Lat      *obs.Histogram
}

// Assembled assembles cfg's guest program once; NewWith can then build
// many systems from it (model checking builds thousands of instances
// of one program).
func Assembled(cfg Config) *asm.Program {
	cfg = cfg.defaulted()
	logWords := 16
	if cfg.Audit {
		logWords = cfg.CPUs*cfg.Iters + 16
	}
	return guest.Assemble(Program(cfg.Variant, cfg.CPUs, logWords))
}

// New assembles the program for cfg, builds the SMP system, pokes the
// qnode identity fields and spawns one worker per CPU. It does not
// step the system: tests drive stepping themselves for kill and
// checkpoint scenarios.
func New(cfg Config) (*Run, error) {
	return NewWith(cfg, Assembled(cfg))
}

// NewWith is New against a pre-assembled program (see Assembled).
func NewWith(cfg Config, prog *asm.Program) (*Run, error) {
	cfg = cfg.defaulted()
	if cfg.Workers != nil && len(cfg.Workers) != cfg.CPUs {
		return nil, fmt.Errorf("qlock: %d worker opts for %d cpus", len(cfg.Workers), cfg.CPUs)
	}
	sys := smp.New(smp.Config{
		CPUs:      cfg.CPUs,
		Mode:      cfg.Mode,
		MaxCycles: cfg.MaxCycles,
		Quantum:   cfg.Quantum,
		Faults:    cfg.Faults,
	})
	sys.Load(prog)

	info := ProgramInfo{
		Counter: prog.MustSymbol("counter"),
		Qtail:   prog.MustSymbol("qtail"),
		Qowner:  prog.MustSymbol("qowner"),
		Qnodes:  prog.MustSymbol("qnodes"),
		Lats:    prog.MustSymbol("lats"),
		Turns:   prog.MustSymbol("turns"),
		Enqlog:  prog.MustSymbol("enqlog"),
		Turnidx: prog.MustSymbol("turnidx"),
		Enqseq:  prog.MustSymbol("enqseq"),
		Entry:   prog.MustSymbol("worker"),
	}
	r := &Run{Cfg: cfg, Sys: sys, Prog: info}

	flagsBase := isa.Word(0)
	if cfg.Audit {
		flagsBase |= FlagAudit
	}
	if cfg.TryBound > 0 {
		flagsBase |= isa.Word(cfg.TryBound) << 16
	}
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		qn := r.QnodeAddr(cpu)
		flags := flagsBase
		if cfg.Workers != nil {
			w := cfg.Workers[cpu]
			peer := -1
			switch {
			case w.WaitHeldPeer >= 0:
				flags |= FlagWaitHeld
				peer = w.WaitHeldPeer
			case w.WaitEnqPeer >= 0:
				flags |= FlagWaitEnq
				peer = w.WaitEnqPeer
			case w.HoldForPeer >= 0:
				flags |= FlagHoldForPeer
				peer = w.HoldForPeer
			case w.HoldAbortPeer >= 0:
				flags |= FlagHoldAbort
				peer = w.HoldAbortPeer
			}
			if peer >= 0 {
				if peer >= cfg.CPUs {
					return nil, fmt.Errorf("qlock: worker %d peers with %d of %d", cpu, peer, cfg.CPUs)
				}
				sys.Mem.StoreWord(qn+QPeer, isa.Word(r.QnodeAddr(peer)))
			}
		}
		// Identity pokes before spawn: the +1 bias keeps gid 0
		// distinguishable from "never initialized" (= dead).
		sys.Mem.StoreWord(qn+QGID1, isa.Word(smp.GlobalID(cpu, 0)+1))
		sys.Mem.StoreWord(qn+QLatBase, isa.Word(info.Lats+uint32(4*LatBuckets*cpu)))
		sys.Spawn(cpu, info.Entry, guest.StackTop(smp.GlobalID(cpu, 0)),
			isa.Word(cfg.Iters), isa.Word(qn), flags)
	}
	return r, nil
}

// QnodeAddr returns worker cpu's qnode address.
func (r *Run) QnodeAddr(cpu int) uint32 { return r.Prog.Qnodes + uint32(64*cpu) }

// Collect peels the run's results out of guest memory and verifies
// the exactness invariant counter == sum(per-thread completions). A
// checkpoint test that restores into a fresh system swaps it into Sys
// first.
func (r *Run) Collect() (*Result, error) {
	cfg, sys, info := r.Cfg, r.Sys, r.Prog
	res := &Result{
		Variant: cfg.Variant,
		CPUs:    cfg.CPUs,
		Mode:    cfg.Mode,
		Counter: uint64(sys.Mem.Peek(info.Counter)),
		Cycles:  sys.TotalCycles(),
		RMRs:    sys.TotalRMRs(),
		Lat:     obs.NewHistogram(obs.ExpBuckets(1, LatBuckets)),
	}
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		qn := info.Qnodes + uint32(64*cpu)
		mine := uint64(sys.Mem.Peek(qn + QMine))
		res.Mine = append(res.Mine, mine)
		res.Passages += mine
		res.Repairs += uint64(sys.Mem.Peek(qn + QRepairs))
		res.Splices += uint64(sys.Mem.Peek(qn + QSplices))
		res.Fallback += uint64(sys.Mem.Peek(qn + QFallback))
		res.Aborts += uint64(sys.Mem.Peek(qn + QAborts))
		res.Scans += uint64(sys.Mem.Peek(qn + QScans))
		if sys.ThreadAliveG(smp.GlobalID(cpu, 0)) || workerExited(sys, cpu) {
			res.Alive++
		}
		for b := 0; b < LatBuckets; b++ {
			n := uint64(sys.Mem.Peek(info.Lats + uint32(4*LatBuckets*cpu+4*b)))
			res.Lat.ObserveN(uint64(1)<<b, n)
		}
	}
	if cfg.Audit {
		n := int(sys.Mem.Peek(info.Turnidx))
		for i := 0; i < n && i < cfg.CPUs*cfg.Iters+16; i++ {
			g := int(sys.Mem.Peek(info.Turns + uint32(4*i)))
			if g > 0 {
				res.CSOrder = append(res.CSOrder, g-1)
			}
		}
		m := int(sys.Mem.Peek(info.Enqseq))
		for i := 0; i < m && i < cfg.CPUs*cfg.Iters+16; i++ {
			g := int(sys.Mem.Peek(info.Enqlog + uint32(4*i)))
			if g > 0 {
				res.EnqOrder = append(res.EnqOrder, g-1)
			}
		}
	}
	if res.Counter != res.Passages {
		return res, fmt.Errorf("qlock: %s/%dcpu/%s: counter %d but %d completed passages — mutual exclusion violated",
			cfg.Variant, cfg.CPUs, cfg.Mode, res.Counter, res.Passages)
	}
	return res, nil
}

// workerExited distinguishes a worker that ran to SysExit from one
// that was killed: exited threads report dead to the liveness oracle
// but completed all their work.
func workerExited(sys *smp.System, cpu int) bool {
	ts := sys.CPUs[cpu].Threads()
	return len(ts) > 0 && ts[0].State == kernel.StateDone
}

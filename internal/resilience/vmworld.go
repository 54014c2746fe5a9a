package resilience

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// VMWorldConfig shapes the ISA-substrate world.
type VMWorldConfig struct {
	// Workers and Iters define the guest workload (see
	// guest.ResilientServerProgram).
	Workers, Iters int
	// MaxCycles bounds one boot. Default 1 << 22.
	MaxCycles uint64
	// Run runs every boot and the calibration run; nil means
	// (*kernel.Kernel).Run.
	Run func(*kernel.Kernel) error
}

// VMWorld is the machine-substrate World: the resilient server guest on
// a kernel.Lives machine whose NVM is the only thing that survives a
// Boot, so the guest's own R1..R5 recovery path is what stands between a
// crash and the workload resuming.
type VMWorld struct {
	cfg   VMWorldConfig
	lives kernel.Lives
	addr  vmAddrs // the guest words the world reads and writes

	// Per-boot recovery watch state, read by the one watcher registered
	// at cold boot (vmach watchers cannot be unregistered).
	kern     *kernel.Kernel
	recSeen  bool
	recSteps uint64
}

// NewVMWorld assembles the guest; the machine itself powers on at the
// first Boot.
func NewVMWorld(cfg VMWorldConfig) *VMWorld {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 22
	}
	prog := guest.Assemble(guest.ResilientServerProgram(cfg.Workers, cfg.Iters))
	return &VMWorld{cfg: cfg, addr: vmAddrs{
		recovered: prog.MustSymbol("recovered"), readonly: prog.MustSymbol("readonly"),
		counter: prog.MustSymbol("counter"), wal: prog.MustSymbol("wal"),
		applied: prog.MustSymbol("applied"), lock: prog.MustSymbol("lock"),
		repairs: prog.MustSymbol("repairs"),
	}, lives: kernel.Lives{
		Prog: prog, StackTop: guest.StackTop(0), Config: kernel.PersistConfig(cfg.MaxCycles), Runner: cfg.Run}}
}

// vmAddrs are the addresses of the resilient server guest's symbols,
// resolved once: a campaign reads them on every boot.
type vmAddrs struct {
	recovered, readonly, counter, wal, applied, lock, repairs uint32
}

// CalibrateSpan runs a separate, throwaway machine cleanly and returns
// its step count — the ordinal span a chaos.CrashPlan should scatter
// crashes over.
func (w *VMWorld) CalibrateSpan() (uint64, error) { return w.lives.Calibrate() }

func (w *VMWorld) appliedAddr(worker int) uint32 { return w.addr.applied + uint32(worker)*64 }

// sumApplied reads the durable dedup table.
func (w *VMWorld) sumApplied() isa.Word {
	var sum isa.Word
	for i := 0; i < w.cfg.Workers; i++ {
		sum += w.mem().Peek(w.appliedAddr(i))
	}
	return sum
}

func (w *VMWorld) mem() *vmach.Memory { return w.lives.Memory() }

// Boot powers the machine on (cold the first time, warm — over the
// surviving NVM, without reloading — after that) and runs one life.
func (w *VMWorld) Boot(boot int, inj chaos.Injector, degraded bool) Report {
	cold := w.mem() == nil
	k := w.lives.Boot(inj)
	if cold {
		// One watcher for the machine's whole existence: record the step
		// at which this boot's recovery completed (R5 stores 1).
		w.mem().Watch(w.addr.recovered, func(old, new isa.Word) {
			if new == 1 && !w.recSeen {
				w.recSeen = true
				w.recSteps = w.kern.Steps()
			}
		})
	}
	w.kern, w.recSeen, w.recSteps = k, false, 0
	// BIOS-level boot flags, durable by construction: clear the
	// recovery-complete word so a crash classifies against THIS life's
	// recovery, and set the service mode the supervisor chose.
	w.mem().Poke(w.addr.recovered, 0)
	ro := isa.Word(0)
	if degraded {
		ro = 1
	}
	w.mem().Poke(w.addr.readonly, ro)

	var rep Report
	err := w.lives.Run(k)
	rep.Cycles = k.Steps()
	rep.RecoveryCycles = w.recSteps
	switch {
	case errors.Is(err, kernel.ErrMachineCrash):
		rep.Crashed = true
		rep.InRecovery = w.mem().Peek(w.addr.recovered) == 0
	case err != nil:
		rep.Err = err
		return rep
	}
	// Post-recovery audit: the counter is derived from the applied table.
	// On a boot that ended cleanly the two must agree exactly. On a boot
	// that crashed after recovery, the crash may have landed inside the
	// W2..W3 window, where the dedup entry is durable but the counter
	// increment is not — legal only if it is a single effect and the WAL
	// intent that will repair it on the next boot survived.
	if w.mem().Peek(w.addr.recovered) == 1 {
		c, s := w.mem().Peek(w.addr.counter), w.sumApplied()
		switch {
		case !rep.Crashed && c != s:
			rep.Err = fmt.Errorf("counter %d != sum(applied) %d", c, s)
			return rep
		case rep.Crashed && c > s:
			rep.Err = fmt.Errorf("counter %d ahead of sum(applied) %d (double apply)", c, s)
			return rep
		case rep.Crashed && s-c > 1:
			rep.Err = fmt.Errorf("counter %d lags sum(applied) %d by more than one effect", c, s)
			return rep
		case rep.Crashed && s-c == 1 && w.mem().Peek(w.addr.wal) == 0:
			rep.Err = fmt.Errorf("counter %d lags sum(applied) %d with no surviving intent", c, s)
			return rep
		}
	}
	if !rep.Crashed && !degraded {
		rep.Completed = w.sumApplied() == isa.Word(w.cfg.Workers*w.cfg.Iters)
	}
	return rep
}

// Check is the final audit: exact exactly-once accounting straight from
// NVM — every worker's whole range applied, the counter equal to the
// total, the WAL retired, the lock free.
func (w *VMWorld) Check() error {
	if w.mem() == nil {
		return errors.New("vmworld: never booted")
	}
	for i := 0; i < w.cfg.Workers; i++ {
		if got := w.mem().Peek(w.appliedAddr(i)); got != isa.Word(w.cfg.Iters) {
			return fmt.Errorf("final audit: worker %d applied = %d, want %d", i+1, got, w.cfg.Iters)
		}
	}
	want := isa.Word(w.cfg.Workers * w.cfg.Iters)
	if got := w.mem().Peek(w.addr.counter); got != want {
		return fmt.Errorf("final audit: counter = %d, want %d (exactly-once broken)", got, want)
	}
	if wal := w.mem().Peek(w.addr.wal); wal != 0 {
		return fmt.Errorf("final audit: unretired WAL intent %#x", wal)
	}
	if held := guest.HeldLock(w.mem().Peek(w.addr.lock)); held != "" {
		return fmt.Errorf("final audit: %s", held)
	}
	return nil
}

// Repairs reads the durable count of lock repairs (recovery-path and
// orphan-steal) the machine performed across its lives.
func (w *VMWorld) Repairs() uint64 {
	if w.mem() == nil {
		return 0
	}
	return uint64(w.mem().Peek(w.addr.repairs))
}

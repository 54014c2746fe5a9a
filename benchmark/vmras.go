package main

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
	"repro/internal/vmach/kernel"
)

// rasMechs are the mechanisms vm-ras rotates through, unit by unit: the
// Taos designated sequence, the Mach registered sequence, and kernel
// emulation, each with the recovery strategy and check placement the
// paper pairs it with.
var rasMechs = []struct {
	mech  guest.Mechanism
	strat func() kernel.Strategy
	at    kernel.CheckTime
}{
	{guest.MechDesignated, func() kernel.Strategy { return &kernel.Designated{} }, kernel.CheckAtResume},
	{guest.MechRegistered, func() kernel.Strategy { return &kernel.Registration{} }, kernel.CheckAtSuspend},
	{guest.MechEmul, func() kernel.Strategy { return kernel.NoRecovery{} }, kernel.CheckAtSuspend},
}

// warmupTag separates warm-up plan seeds from measured ones.
const warmupTag = 0x5E7A9

// vmRAS is the vm-ras workload: guest.MutexCounterProgram runs under a
// 300-cycle quantum and a seeded chaos plan (forced preemptions, code-
// and stack-page evictions, jitter) with the livelock watchdog extending.
// One unit is one guest run.
type vmRAS struct {
	seed                   uint64
	workers, iters         int
	perPass, prefixPasses  int
	progs                  []*asm.Program
	assembleMS             []float64
	kstats                 kernel.Stats // over the prefix passes
	mstats                 vmach.Stats
	passages               uint64
	stepCalls, stepSampled uint64 // traced run: StepOne calls, and those timed
}

func newVMRAS(seed uint64, smoke bool) *vmRAS {
	if smoke {
		return &vmRAS{seed: seed, workers: 2, iters: 100, perPass: 3, prefixPasses: 2}
	}
	return &vmRAS{seed: seed, workers: 4, iters: 3000, perPass: 30, prefixPasses: 10}
}

func (w *vmRAS) prefix() int { return w.prefixPasses }

func (w *vmRAS) setup() error {
	t0 := time.Now()
	w.progs = w.progs[:0]
	for _, m := range rasMechs {
		p, err := asm.Assemble(guest.MutexCounterProgram(m.mech, w.workers, w.iters))
		if err != nil {
			return err
		}
		w.progs = append(w.progs, p)
	}
	w.assembleMS = append(w.assembleMS, float64(time.Since(t0))/1e6)
	for mi := range rasMechs {
		if _, err := w.run(mi, chaos.Derive(w.seed, warmupTag, uint64(mi)), nil, -1); err != nil {
			return fmt.Errorf("warm-up %s: %w", rasMechs[mi].mech, err)
		}
	}
	return nil
}

// run executes one guest run of mechanism mi under the plan seeded
// planSeed and checks the counter. With a tracer, a seeded one in
// sixteen StepOne calls is timed; timing every step would triple the
// run time.
func (w *vmRAS) run(mi int, planSeed uint64, tr *tracer, unit int64) (*kernel.Kernel, error) {
	m, prog := rasMechs[mi], w.progs[mi]
	k := kernel.New(kernel.Config{Strategy: m.strat(), CheckAt: m.at, Quantum: 300,
		Faults: chaos.NewPlan(planSeed, 0.25), Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend}})
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	var err error
	if tr == nil {
		err = k.Run()
	} else {
		err = w.stepTraced(k, tr, planSeed|1, unit)
	}
	if err != nil {
		return k, err
	}
	if got, want := k.M.Mem.Peek(prog.MustSymbol("counter")), isa.Word(w.workers*w.iters); got != want {
		return k, fmt.Errorf("counter %d, want %d: mutual exclusion violated", got, want)
	}
	return k, nil
}

func (w *vmRAS) stepTraced(k *kernel.Kernel, tr *tracer, rng uint64, unit int64) error {
	for {
		w.stepCalls++
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if rng&15 != 0 {
			if fin, err := k.StepOne(); fin {
				return err
			}
			continue
		}
		w.stepSampled++
		before := k.Stats
		tr.begin()
		fin, err := k.StepOne()
		tr.end(classifyStep(before, k.Stats), unit)
		if fin {
			return err
		}
	}
}

// classifyStep names what one StepOne call did, from the kernel's
// counters: the first that moved, in order of precedence, or a plain
// instruction when none did.
func classifyStep(b, a kernel.Stats) spanKind {
	switch {
	case a.PageFaults != b.PageFaults:
		return kindPageFault
	case a.Restarts != b.Restarts:
		return kindRestart
	case a.Syscalls != b.Syscalls:
		return kindSyscall
	case a.Suspensions != b.Suspensions:
		return kindSuspend
	case a.Switches != b.Switches:
		return kindDispatch
	}
	return kindStep
}

func (w *vmRAS) pass(i int, m *meter) {
	for j := 0; j < w.perPass; j++ {
		if j > 0 {
			m.endChunk() // one guest run per chunk
		}
		u := i*w.perPass + j
		mi := u % len(rasMechs)
		var k *kernel.Kernel
		var err error
		lat := m.timed(kindUnit, int64(u), func() { k, err = w.run(mi, chaos.Derive(w.seed, uint64(u)), m.tr, int64(u)) })
		m.unit(lat, k.M.Stats.Instructions)
		if err != nil {
			m.failed++
			reportFailure("vm-ras", w.seed, "unit %d (%s): %v", u, rasMechs[mi].mech, err)
		}
		if m.inPrefix {
			addKernelStats(&w.kstats, k.Stats)
			s := k.M.Stats
			w.mstats.Instructions += s.Instructions
			w.mstats.Loads += s.Loads
			w.mstats.Stores += s.Stores
			w.mstats.Interlocked += s.Interlocked
			w.mstats.Cycles += s.Cycles
			w.passages += uint64(w.workers * w.iters)
		}
	}
}

func addKernelStats(sum *kernel.Stats, s kernel.Stats) {
	sum.Suspensions += s.Suspensions
	sum.Restarts += s.Restarts
	sum.EmulTraps += s.EmulTraps
	sum.Syscalls += s.Syscalls
	sum.PageFaults += s.PageFaults
	sum.CheckRejects += s.CheckRejects
	sum.WatchdogExtends += s.WatchdogExtends
}

func (w *vmRAS) simulated() map[string]float64 {
	ks := w.kstats
	return map[string]float64{
		"vmach.instructions":        float64(w.mstats.Instructions),
		"vmach.loads":               float64(w.mstats.Loads),
		"vmach.stores":              float64(w.mstats.Stores),
		"vmach.interlocked":         float64(w.mstats.Interlocked),
		"kernel.suspensions":        float64(ks.Suspensions),
		"kernel.restarts":           float64(ks.Restarts),
		"kernel.emul_traps":         float64(ks.EmulTraps),
		"kernel.syscalls":           float64(ks.Syscalls),
		"kernel.page_faults":        float64(ks.PageFaults),
		"kernel.check_rejects":      float64(ks.CheckRejects),
		"kernel.watchdog_extends":   float64(ks.WatchdogExtends),
		"kernel.useful_seq_ratio":   ratio(float64(w.passages), float64(w.passages+ks.Restarts)),
		"kernel.cycles_per_passage": ratio(float64(w.mstats.Cycles), float64(w.passages)),
	}
}

func (w *vmRAS) timings(t *tracer) map[string]float64 {
	// Timing a ~70 ns instruction inflates it, so the interpreter's time is
	// the residual: unit time without the instrumentation, minus the
	// kernel-path steps (long enough to time well) scaled from the sample.
	unitNs := float64(t.totals[kindUnit].dur) - float64(w.stepSampled)*float64(t.perSpan)
	scale := ratio(float64(w.stepCalls), float64(w.stepSampled))
	var kernelNs float64
	for k := kindDispatch; k <= kindPageFault; k++ {
		kernelNs += scale * float64(t.totals[k].dur)
	}
	vmachNs := unitNs - kernelNs
	return map[string]float64{
		"asm.assemble_ms":      quantile(w.assembleMS, 0.5),
		"isa.decode_ns":        decodeNs(w.progs),
		"vmach.step_ns":        ratio(vmachNs, scale*float64(t.totals[kindStep].count)),
		"vmach.share":          ratio(vmachNs, unitNs),
		"kernel.dispatch_ns":   t.mean(kindDispatch),
		"kernel.suspend_ns":    t.mean(kindSuspend),
		"kernel.restart_ns":    t.mean(kindRestart),
		"kernel.syscall_ns":    t.mean(kindSyscall),
		"kernel.page_fault_ns": t.mean(kindPageFault),
		"kernel.share":         ratio(kernelNs, unitNs),
	}
}

// decodeSink keeps the decode probe's results live.
var decodeSink uint32

// decodeNs is the host cost of isa.Decode over the programs' text words.
func decodeNs(progs []*asm.Program) float64 {
	var words []isa.Word
	for _, p := range progs {
		words = append(words, p.Text...)
	}
	if len(words) == 0 {
		return 0
	}
	reps := 1<<21/len(words) + 1
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, wd := range words {
			decodeSink += isa.Decode(wd).Op
		}
	}
	return float64(time.Since(t0)) / float64(reps*len(words))
}

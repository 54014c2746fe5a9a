package main

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/resilience"
)

// bootKinds classify machine lives for kernel.boot_us_p50.<kind>.
var bootKinds = []string{"recovery_crash", "crash", "degraded", "clean"}

// inert never fires. Installing it on boots the plan leaves clean makes
// the kernel count their retired steps: with a nil injector Steps() does
// not advance, and those lives would report zero uptime.
var inert = chaos.OneShot{Point: chaos.PointStep, N: 1 << 62}

// vmCrash is the vm-crash workload: E27 crash-restart campaigns of the
// resilient-server guest, with E27's world, window and supervision
// policy. Campaign c follows crashPlan(seed+c). One pass is one campaign;
// one unit is one World.Boot.
type vmCrash struct {
	seed                  uint64
	workers, iters        int
	crashes, prefixPasses int
	window                uint64 // crash-ordinal span, calibrated in setup
	prog                  *asm.Program
	asmMS                 []float64

	// Over the prefix campaigns.
	out                              resilience.Outcome // summed counts
	recovery, lost, degraded, useful uint64             // steps by kind of life
	usefulBoots                      uint64
	recoveries                       counts

	// Traced run.
	bootLat   []reservoir // host ns by boot kind
	campaigns int
}

func newVMCrash(seed uint64, smoke bool) *vmCrash {
	w := &vmCrash{seed: seed, workers: 2, iters: 700, crashes: 1000, prefixPasses: 200, recoveries: counts{}}
	if smoke {
		w.iters, w.crashes, w.prefixPasses = 70, 100, 2
	}
	for range bootKinds {
		w.bootLat = append(w.bootLat, reservoir{rng: seed})
	}
	return w
}

func (w *vmCrash) prefix() int { return w.prefixPasses }

// setup assembles the guest (for asm.assemble_ms and the decode probe;
// each campaign's world assembles its own), calibrates the crash span as
// E27 does, and runs one warm-up campaign.
func (w *vmCrash) setup() error {
	t0 := time.Now()
	p, err := asm.Assemble(guest.ResilientServerProgram(w.workers, w.iters))
	if err != nil {
		return err
	}
	w.prog = p
	w.asmMS = append(w.asmMS, float64(time.Since(t0))/1e6)
	cfg := resilience.VMWorldConfig{Workers: w.workers, Iters: w.iters}
	span, err := resilience.NewVMWorld(cfg).CalibrateSpan()
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	// E27's window: three times each crash's fair share of a clean run.
	w.window = 3*span/uint64(w.crashes) + 1
	if _, err := w.campaign(w.crashPlan(chaos.Derive(w.seed, warmupTag)), &meter{}); err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	return nil
}

// timedWorld wraps the campaign's World to time every Boot and Check.
// It only records; lives are accounted after Supervise returns, so the
// supervisor's self time carries no bookkeeping of the benchmark's.
type timedWorld struct {
	resilience.World
	m        *meter
	lat      []time.Duration
	degraded []bool
}

func (tw *timedWorld) Boot(boot int, inj chaos.Injector, degraded bool) (rep resilience.Report) {
	lat := tw.m.timed(kindBoot, int64(boot), func() { rep = tw.World.Boot(boot, inj, degraded) })
	tw.lat = append(tw.lat, lat)
	tw.degraded = append(tw.degraded, degraded)
	return rep
}

func (tw *timedWorld) Check() (err error) {
	tw.m.timed(kindCheck, 0, func() { err = tw.World.Check() })
	return err
}

// account reports every life of a campaign as a unit and, in the
// prefix, splits its uptime by kind of life.
func (w *vmCrash) account(tw *timedWorld, reps []resilience.Report, m *meter) {
	for i, rep := range reps {
		m.unit(tw.lat[i], rep.Cycles)
		degraded := tw.degraded[i]
		if m.tr != nil {
			kind := 3
			switch {
			case rep.Crashed && rep.InRecovery:
				kind = 0
			case rep.Crashed:
				kind = 1
			case degraded:
				kind = 2
			}
			w.bootLat[kind].add(float64(tw.lat[i]))
		}
		if !m.inPrefix {
			continue
		}
		switch {
		case degraded:
			w.degraded += rep.Cycles
		case rep.Crashed && rep.InRecovery:
			w.lost += rep.Cycles
		default:
			w.recovery += rep.RecoveryCycles
			w.useful += rep.Cycles - rep.RecoveryCycles
			w.usefulBoots++
		}
		if rep.RecoveryCycles > 0 {
			w.recoveries[rep.RecoveryCycles]++
		}
	}
}

// crashPlan is E27's plan for planSeed without its clean crashes: a
// clean crash followed later by a volatile or torn one fails the
// exactly-once audit on about a third of plan seeds (a defect of the
// crash model or the guest, recorded in README.md), while volatile and
// torn crashes alone pass on every seed tried.
func (w *vmCrash) crashPlan(planSeed uint64) *chaos.CrashPlan {
	return &chaos.CrashPlan{Seed: planSeed, Point: chaos.PointStep, Span: w.window,
		Crashes: w.crashes, WVolatile: 2, WTorn: 1}
}

// campaign supervises one fresh world through plan with E27's policy,
// and checks that it completed and passed the final exactly-once audit.
func (w *vmCrash) campaign(plan *chaos.CrashPlan, m *meter) (resilience.Outcome, error) {
	world := &timedWorld{World: resilience.NewVMWorld(resilience.VMWorldConfig{Workers: w.workers, Iters: w.iters}), m: m}
	cfg := resilience.Config{
		Boots: func(b int) chaos.Injector {
			if inj := plan.Boot(b); inj != nil {
				return inj
			}
			return inert
		},
		MaxBoots:   w.crashes + 1024,
		CrashLoopK: 4,
		JitterSeed: plan.Seed,
	}
	var out resilience.Outcome
	var err error
	m.timed(kindSupervise, int64(plan.Seed), func() { out, err = resilience.Supervise(world, cfg) })
	w.account(world, out.Reports, m)
	if err == nil && !out.Completed {
		err = fmt.Errorf("campaign did not complete: %v", out)
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", plan, err)
	}
	return out, nil
}

func (w *vmCrash) pass(i int, m *meter) {
	unitsBefore := m.units
	w.campaigns++
	out, err := w.campaign(w.crashPlan(w.seed+uint64(i)), m)
	if err != nil {
		if m.units == unitsBefore {
			m.unit(0, 0)
		}
		m.failed += m.units - unitsBefore
		reportFailure("vm-crash", w.seed, "campaign %d: %v", i, err)
		return
	}
	if m.inPrefix {
		w.out.Boots += out.Boots
		w.out.Crashes += out.Crashes
		w.out.RecoveryCrashes += out.RecoveryCrashes
		w.out.Demotions += out.Demotions
		w.out.DegradedBoots += out.DegradedBoots
		w.out.BackoffTotal += out.BackoffTotal
		w.out.UpCycles += out.UpCycles
	}
}

func (w *vmCrash) simulated() map[string]float64 {
	o := w.out
	return map[string]float64{
		"resilience.boots":                  float64(o.Boots),
		"resilience.crashes":                float64(o.Crashes),
		"resilience.recovery_crashes":       float64(o.RecoveryCrashes),
		"resilience.demotions":              float64(o.Demotions),
		"resilience.degraded_boots":         float64(o.DegradedBoots),
		"resilience.backoff_cycles":         float64(o.BackoffTotal),
		"resilience.recovery_steps":         float64(w.recovery),
		"resilience.lost_in_recovery_steps": float64(w.lost),
		"resilience.degraded_steps":         float64(w.degraded),
		"resilience.useful_steps":           float64(w.useful),
		"resilience.availability":           o.Availability(),
		"resilience.recovery_steps_p95":     w.recoveries.quantile(0.95),
		"resilience.useful_boot_ratio":      ratio(float64(w.usefulBoots), float64(o.Boots)),
	}
}

func (w *vmCrash) timings(t *tracer) map[string]float64 {
	out := map[string]float64{
		"asm.assemble_ms":              quantile(w.asmMS, 0.5),
		"isa.decode_ns":                decodeNs([]*asm.Program{w.prog}),
		"resilience.supervise_self_us": ratio(t.trueSelf(kindSupervise)/1e3, float64(w.campaigns)),
	}
	for i, k := range bootKinds {
		out["kernel.boot_us_p50."+k] = w.bootLat[i].quantile(0.5) / 1e3
	}
	return out
}

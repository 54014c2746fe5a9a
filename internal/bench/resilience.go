package bench

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/resilience"
)

// ResilienceConfig parametrizes the crash-restart supervision table
// (experiment E27): the seeded vmach 1000-crash campaign, the uniproc
// exactly-once server campaign, the forced crash-loop demotion cycle,
// and the exhaustive supervisor-in-the-loop model walk.
type ResilienceConfig struct {
	Seed uint64
	// Crashes is the planned crash-boot count of the vmach campaign.
	Crashes int
	// Workers and Iters shape the vmach resilient-server guest.
	Workers, Iters int
	// Clients and Requests shape the uniproc server campaign; its plan
	// schedules ServerCrashes crash boots.
	Clients, Requests, ServerCrashes int
	MaxCycles                        uint64
}

// DefaultResilienceConfig returns the configuration
// `rasbench -table resilience` and `make resilience` run.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{Seed: 1, Crashes: 1000, Workers: 2, Iters: 700,
		Clients: 3, Requests: 40, ServerCrashes: 120}
}

// ResilienceRow is one campaign outcome.
type ResilienceRow struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// Plan is the campaign's crash schedule, replayable verbatim with
	// `rasvm -demo resilience -plan '...'`.
	Plan string `json:"plan"`
	// Boots/Crashes/RecCrashes are machine lives consumed, lives ending
	// in an injected crash, and crashes that landed inside recovery.
	Boots      int `json:"boots"`
	Crashes    int `json:"crashes"`
	RecCrashes int `json:"rec_crashes"`
	// Demotions and Degraded count crash-loop demotions and the clean
	// degraded (read-only) lives served while demoted.
	Demotions int `json:"demotions"`
	Degraded  int `json:"degraded"`
	// Shed and Timeouts are the server-side refusals and client deadline
	// expiries (uniproc rows; 0 on the ISA substrate).
	Shed     uint64 `json:"shed"`
	Timeouts uint64 `json:"timeouts"`
	// Avail is UpCycles/(UpCycles+BackoffTotal); RecP95 the 95th
	// percentile of completed recoveries in cycles.
	Avail   float64 `json:"avail"`
	RecP95  uint64  `json:"rec_p95"`
	Outcome string  `json:"outcome"`
}

// ResilienceCampaign builds the supervised world and supervisor config
// that replay plan. Step plans drive the ISA resilient-server guest
// (cfg.Workers x cfg.Iters, demoting after 4 crashes inside recovery);
// persist and memop plans drive the uniproc uxserver plane (cfg.Clients
// x cfg.Requests on 2 shards). Every boot runs through h. The table's
// campaign rows and rasvm's resilience demo both build through it, so a
// printed plan replays its row.
func ResilienceCampaign(h *Harness, cfg ResilienceConfig, plan *chaos.CrashPlan) (resilience.World, resilience.Config) {
	scfg := resilience.Config{Boots: plan.Boot, MaxBoots: plan.Crashes + 256, JitterSeed: plan.Seed}
	if plan.Point == chaos.PointStep {
		scfg.MaxBoots, scfg.CrashLoopK = plan.Crashes+1024, 4
		return resilience.NewVMWorld(cfg.vmWorld(h)), scfg
	}
	return resilience.NewServerWorld(cfg.serverWorld(h, plan.Seed)), scfg
}

// CampaignPlan returns the plan of a campaign at point: cfg.Crashes
// crashes at a step point, cfg.ServerCrashes at any other, seeded
// cfg.Seed and mixed 1:2:1 clean:volatile:torn, whose span comes from a
// clean calibration run, through h, of the world ResilienceCampaign
// builds.
func CampaignPlan(h *Harness, cfg ResilienceConfig, point chaos.Point) (*chaos.CrashPlan, error) {
	plan := &chaos.CrashPlan{Seed: cfg.Seed, Point: point, Crashes: cfg.ServerCrashes,
		WClean: 1, WVolatile: 2, WTorn: 1}
	if point == chaos.PointStep {
		plan.Crashes = cfg.Crashes
		span, err := resilience.NewVMWorld(cfg.vmWorld(h)).CalibrateSpan()
		if err != nil {
			return nil, fmt.Errorf("calibration: %v", err)
		}
		// Scatter the crashes over a window of 3x the per-crash fair
		// share of the clean run: recovery is ~a third of that, so boots
		// make real progress between crashes yet the workload is still
		// unfinished when the last planned crash lands and completes in
		// the clean tail.
		plan.Span = 3*span/uint64(plan.Crashes) + 1
		return plan, nil
	}
	rep := resilience.NewServerWorld(cfg.serverWorld(h, cfg.Seed)).Boot(0, nil, false)
	if rep.Err != nil {
		return nil, fmt.Errorf("calibration: %v", rep.Err)
	}
	plan.Span = 2*rep.PersistOps/uint64(plan.Crashes) + 1
	return plan, nil
}

func (cfg ResilienceConfig) vmWorld(h *Harness) resilience.VMWorldConfig {
	return resilience.VMWorldConfig{Workers: cfg.Workers, Iters: cfg.Iters,
		MaxCycles: cfg.MaxCycles, Run: h.runKernel}
}

func (cfg ResilienceConfig) serverWorld(h *Harness, seed uint64) resilience.ServerWorldConfig {
	return resilience.ServerWorldConfig{Clients: cfg.Clients, Iters: cfg.Requests,
		Shards: 2, MaxCycles: cfg.MaxCycles, JitterSeed: seed, Run: h.runProcessor}
}

// resilienceCampaign runs one campaign row: the plan's crashes mixed
// clean, volatile and torn, every reboot warm over the surviving NVM,
// and the world's exactly-once audit at the end. The vmach row is the
// headline: ~1000 crashes landing everywhere from inside recovery to
// mid-workload. The uniproc row runs the uxserver.ResilientServer with
// retrying clients, deadlines, admission control and dedup across
// reboots, auditing acked-implies-durable after every boot.
func resilienceCampaign(h *Harness, cfg ResilienceConfig, scenario string, point chaos.Point) (ResilienceRow, error) {
	fail := func(format string, args ...any) (ResilienceRow, error) {
		return ResilienceRow{}, fmt.Errorf(scenario+": "+format+" (repro: %s)",
			append(args, tableRepro("resilience", cfg.Seed))...)
	}
	plan, err := CampaignPlan(h, cfg, point)
	if err != nil {
		return fail("%v", err)
	}
	w, scfg := ResilienceCampaign(h, cfg, plan)
	out, err := resilience.Supervise(w, scfg)
	if err != nil {
		return fail("%v", err)
	}
	if !out.Completed {
		return fail("campaign did not complete: %v", out)
	}
	row := ResilienceRow{Scenario: scenario, Seed: cfg.Seed,
		Plan: plan.String(), Boots: out.Boots, Crashes: out.Crashes,
		RecCrashes: out.RecoveryCrashes, Demotions: out.Demotions,
		Degraded: out.DegradedBoots, Avail: out.Availability(),
		RecP95: out.RecoveryP95}
	switch w := w.(type) {
	case *resilience.VMWorld:
		if out.Crashes < plan.Crashes*9/10 {
			return fail("only %d of %d planned crashes landed — the span no longer bites", out.Crashes, plan.Crashes)
		}
		if out.RecoveryCrashes == 0 {
			return fail("no crash landed inside recovery — the campaign no longer covers the reboot loop")
		}
		row.Outcome = fmt.Sprintf("exactly-once, %d repairs", w.Repairs())
	case *resilience.ServerWorld:
		st := w.Stats()
		row.Shed, row.Timeouts = st.Shed, st.Timeouts
		row.Outcome = fmt.Sprintf("exactly-once, %d dedup hits", st.DupAcks+st.ReplaySkips)
	}
	return row, nil
}

// uniprocDegradedCycle forces the full availability-policy cycle: K
// consecutive crashes inside recovery (persist ordinal 1 is recovery's
// own counter flush) demote the server to read-only mode, the degraded
// boots serve reads and shed the probe mutation, hysteresis re-promotes,
// and the workload then completes exactly-once.
func uniprocDegradedCycle(h *Harness, cfg ResilienceConfig) (ResilienceRow, error) {
	fail := func(format string, args ...any) (ResilienceRow, error) {
		return ResilienceRow{}, fmt.Errorf("uniproc/degraded-cycle: "+format+" (repro: %s)",
			append(args, tableRepro("resilience", cfg.Seed))...)
	}
	const loopK = 3
	w := resilience.NewServerWorld(resilience.ServerWorldConfig{
		Clients: 2, Iters: 6, MaxCycles: cfg.MaxCycles, JitterSeed: cfg.Seed, Run: h.runProcessor})
	out, err := resilience.Supervise(w, resilience.Config{
		Boots: func(boot int) chaos.Injector {
			if boot >= loopK {
				return nil
			}
			return chaos.OneShot{Point: chaos.PointPersist, N: 1,
				Action: chaos.Action{Crash: chaos.CrashVolatile}}
		},
		CrashLoopK: loopK, RepromoteAfter: 2, JitterSeed: cfg.Seed,
	})
	if err != nil {
		return fail("%v", err)
	}
	if out.Demotions != 1 {
		return fail("demotions = %d, want 1 (the forced crash loop must demote)", out.Demotions)
	}
	if out.DegradedBoots < 2 {
		return fail("degraded boots = %d, want >= 2 (hysteresis must hold before re-promotion)", out.DegradedBoots)
	}
	if !out.Completed {
		return fail("did not complete after re-promotion: %v", out)
	}
	st := w.Stats()
	if st.Shed == 0 {
		return fail("degraded boots shed nothing — the read-only probe is gone")
	}
	return ResilienceRow{Scenario: "uniproc/degraded-cycle", Seed: cfg.Seed,
		Plan:  fmt.Sprintf("%d crashes at persist op 1", loopK),
		Boots: out.Boots, Crashes: out.Crashes, RecCrashes: out.RecoveryCrashes,
		Demotions: out.Demotions, Degraded: out.DegradedBoots,
		Shed: st.Shed, Timeouts: st.Timeouts, Avail: out.Availability(),
		RecP95:  out.RecoveryP95,
		Outcome: "demoted, held, re-promoted, completed"}, nil
}

// TableResilience runs the crash-restart supervision study (E27):
//
//   - vmach crash campaign: the resilient-server guest supervised
//     through ~1000 seeded crashes (clean, volatile, torn; many inside
//     recovery), warm reboots over surviving NVM, exactly-once audit;
//   - uniproc server campaign: the retrying-client uxserver plane under
//     a seeded persist-ordinal crash plan, with deadlines, shedding, and
//     cross-reboot dedup;
//   - degraded cycle: a forced crash loop through demotion, read-only
//     service, and hysteresis-gated re-promotion;
//   - exactly-once walk: the model checker's exhaustive K=1 enumeration
//     of a supervised crash at EVERY global persist ordinal of the
//     campaign, volatile and torn, which must pass with zero violations.
//
// Any failure is returned as an error naming the seed that reproduces it.
func TableResilience(h *Harness, cfg ResilienceConfig) ([]ResilienceRow, error) {
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	if cfg.ServerCrashes <= 0 {
		cfg.ServerCrashes = 1
	}
	var rows []ResilienceRow

	row, err := resilienceCampaign(h, cfg, "vmach/crash-campaign", chaos.PointStep)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = resilienceCampaign(h, cfg, "uniproc/server-campaign", chaos.PointPersist)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = uniprocDegradedCycle(h, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Exhaustive supervisor-in-the-loop walk via the model checker.
	schedules := 0
	for _, kind := range []string{"volatile", "torn"} {
		n, err := exhaustiveK1("mcheck/exactly-once ("+kind+")", "resilience", map[string]string{"kind": kind})
		if err != nil {
			return nil, err
		}
		schedules += n
	}
	rows = append(rows, ResilienceRow{Scenario: "mcheck/exactly-once",
		Plan: "every global persist ordinal", Crashes: schedules - 2,
		Avail:   1,
		Outcome: "exhaustive K=1 x {volatile,torn}, zero violations"})
	return rows, nil
}

// FormatResilience renders the supervision table; each campaign row
// carries its one-line crash-plan reproducer.
func FormatResilience(rows []ResilienceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %8s %6s %6s %5s %6s %6s %7s %8s  %s\n",
		"Scenario", "Boots", "Crashes", "InRec", "Demote", "Degr", "Shed", "T/outs", "Avail", "RecP95", "Outcome")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %8d %6d %6d %5d %6d %6d %7.4f %8d  %s\n",
			r.Scenario, r.Boots, r.Crashes, r.RecCrashes, r.Demotions, r.Degraded,
			r.Shed, r.Timeouts, r.Avail, r.RecP95, r.Outcome)
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Plan, "crashplan:") {
			fmt.Fprintf(&b, "  %s: rasvm -demo resilience -plan '%s'\n", r.Scenario, r.Plan)
		}
	}
	return b.String()
}

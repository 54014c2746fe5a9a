package resilience

import (
	"errors"
	"testing"

	"repro/internal/chaos"
)

// scripted is a World whose lives are pre-scripted reports.
type scripted struct {
	reports []Report
	checked bool
	boots   []bool // degraded flag per boot, as observed
}

func (s *scripted) Boot(boot int, inj chaos.Injector, degraded bool) Report {
	s.boots = append(s.boots, degraded)
	if boot < len(s.reports) {
		return s.reports[boot]
	}
	return Report{Completed: !degraded}
}
func (s *scripted) Check() error { s.checked = true; return nil }

func TestBackoffDeterministic(t *testing.T) {
	cfg := Config{BackoffBase: 500, BackoffMax: 1 << 17, JitterSeed: 42}
	cfg.defaults()
	if got := cfg.backoff(0, 3); got != 0 {
		t.Errorf("backoff(0) = %d, want 0", got)
	}
	a, b := cfg.backoff(4, 7), cfg.backoff(4, 7)
	if a != b {
		t.Errorf("backoff not deterministic: %d vs %d", a, b)
	}
	base := cfg.backoff(1, 7)
	if base < 500 || base > 500+500/4 {
		t.Errorf("backoff(1) = %d, want 500 + jitter<=125", base)
	}
	// Escalation saturates at BackoffMax (+ jitter).
	huge := cfg.backoff(40, 7)
	if huge < 1<<17 || huge > (1<<17)+(1<<17)/4 {
		t.Errorf("backoff(40) = %d, want saturated at %d + jitter", huge, 1<<17)
	}
}

func TestSuperviseBudgetExhausted(t *testing.T) {
	w := &scripted{}
	for i := 0; i < 100; i++ {
		w.reports = append(w.reports, Report{Crashed: true, InRecovery: true})
	}
	out, err := Supervise(w, Config{MaxBoots: 8, CrashLoopK: 100})
	if !errors.Is(err, ErrRestartBudget) {
		t.Fatalf("err = %v, want ErrRestartBudget", err)
	}
	if out.Boots != 8 || out.Crashes != 8 || out.RecoveryCrashes != 8 || out.Completed {
		t.Errorf("outcome = %+v", out)
	}
}

// Three consecutive in-recovery crashes demote; two clean degraded boots
// re-promote; the next normal boot completes. A second demotion would
// need four clean boots (hysteresis doubles), which this script never
// reaches.
func TestSuperviseDemotionAndRepromotion(t *testing.T) {
	w := &scripted{reports: []Report{
		{Crashed: true, InRecovery: true},
		{Crashed: true, InRecovery: true},
		{Crashed: true, InRecovery: true}, // demotes here
		{},                                // degraded, clean
		{},                                // degraded, clean -> re-promote
		{Completed: true, RecoveryCycles: 100},
	}}
	out, err := Supervise(w, Config{MaxBoots: 10, CrashLoopK: 3, RepromoteAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []bool{false, false, false, true, true, false}
	for i, d := range wantModes {
		if w.boots[i] != d {
			t.Errorf("boot %d degraded = %v, want %v", i, w.boots[i], d)
		}
	}
	if out.Demotions != 1 || out.DegradedBoots != 2 || !out.Completed || !w.checked {
		t.Errorf("outcome = %+v checked=%v", out, w.checked)
	}
	if out.RecoveryP50 != 100 {
		t.Errorf("recovery P50 = %d, want 100", out.RecoveryP50)
	}
}

// A crash AFTER recovery completed resets the escalation: the streak
// counter must not demote across interleaved forward progress.
func TestSuperviseProgressResetsStreak(t *testing.T) {
	w := &scripted{reports: []Report{
		{Crashed: true, InRecovery: true},
		{Crashed: true, InRecovery: true},
		{Crashed: true, InRecovery: false, RecoveryCycles: 10}, // progress
		{Crashed: true, InRecovery: true},
		{Crashed: true, InRecovery: true},
		{Completed: true, RecoveryCycles: 10},
	}}
	out, err := Supervise(w, Config{MaxBoots: 10, CrashLoopK: 3, RepromoteAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Demotions != 0 {
		t.Errorf("demotions = %d, want 0 (streak was broken by progress)", out.Demotions)
	}
	if out.Crashes != 5 || out.RecoveryCrashes != 4 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestSuperviseAbortsOnViolation(t *testing.T) {
	w := &scripted{reports: []Report{{Err: errors.New("counter drift")}}}
	_, err := Supervise(w, Config{MaxBoots: 4})
	if err == nil || errors.Is(err, ErrRestartBudget) {
		t.Fatalf("err = %v, want the violation", err)
	}
}

// serverPlan calibrates a crash plan against the uniproc world's
// persist-ordinal span.
func serverPlan(t *testing.T, cfg ServerWorldConfig, seed uint64, crashes int) *chaos.CrashPlan {
	t.Helper()
	cal := NewServerWorld(cfg)
	rep := cal.Boot(0, nil, false)
	if rep.Err != nil || !rep.Completed {
		t.Fatalf("calibration boot: %+v", rep)
	}
	return &chaos.CrashPlan{Seed: seed, Point: chaos.PointPersist, Span: rep.PersistOps,
		Crashes: crashes, WClean: 1, WVolatile: 2, WTorn: 1}
}

func TestServerWorldCampaign(t *testing.T) {
	cfg := ServerWorldConfig{Clients: 2, Iters: 4, Shards: 2}
	plan := serverPlan(t, cfg, 0xC0FFEE, 8)
	w := NewServerWorld(cfg)
	out, err := Supervise(w, Config{Boots: plan.Boot, MaxBoots: 40, JitterSeed: 1})
	if err != nil {
		t.Fatalf("campaign: %v (outcome %v)", err, out)
	}
	if !out.Completed || out.Crashes == 0 {
		t.Errorf("outcome = %v: want completion through at least one crash", out)
	}
	if w.effects != 8 {
		t.Errorf("effects = %d, want 8", w.effects)
	}
}

// The planted missing-dedup server must NOT survive a crash campaign:
// some audit — per-boot or final — has to catch the double-apply.
func TestServerWorldNoDedupCaught(t *testing.T) {
	cfg := ServerWorldConfig{Clients: 2, Iters: 4, Shards: 2, NoDedup: true}
	calCfg := cfg
	calCfg.NoDedup = false // calibrate on the correct server; same op shape
	plan := serverPlan(t, calCfg, 0xBAD5EED, 8)
	w := NewServerWorld(cfg)
	out, err := Supervise(w, Config{Boots: plan.Boot, MaxBoots: 40, JitterSeed: 1})
	if err == nil {
		t.Fatalf("planted missing-dedup survived the campaign: %v (effects=%d)", out, w.effects)
	}
}

func TestVMWorldCampaign(t *testing.T) {
	w := NewVMWorld(VMWorldConfig{Workers: 2, Iters: 5})
	span, err := w.CalibrateSpan()
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	plan := &chaos.CrashPlan{Seed: 0xF00D, Point: chaos.PointStep, Span: span,
		Crashes: 8, WClean: 1, WVolatile: 2, WTorn: 1}
	out, err := Supervise(w, Config{Boots: plan.Boot, MaxBoots: 40, JitterSeed: 2})
	if err != nil {
		t.Fatalf("campaign: %v (outcome %v)", err, out)
	}
	if !out.Completed || out.Crashes == 0 {
		t.Errorf("outcome = %v: want completion through at least one crash", out)
	}
}

// The final audit catches a lock planted on an orphan owner and names
// the owner by thread ID.
func TestVMWorldAuditNamesOrphanOwner(t *testing.T) {
	w := NewVMWorld(VMWorldConfig{Workers: 1, Iters: 3})
	if rep := w.Boot(0, nil, false); !rep.Completed || rep.Err != nil {
		t.Fatalf("clean boot: %+v", rep)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("clean audit: %v", err)
	}
	w.mem().Poke(w.addr.lock, 1<<16|3) // thread 2, epoch 1
	err := w.Check()
	if want := "final audit: lock still owned by thread 2"; err == nil || err.Error() != want {
		t.Errorf("audit = %v, want %q", err, want)
	}
}

// Degraded lives on the VM substrate: force an immediate demotion and
// verify the guest's readonly path recovers without applying anything.
func TestVMWorldDegradedBoot(t *testing.T) {
	w := NewVMWorld(VMWorldConfig{Workers: 1, Iters: 3})
	rep := w.Boot(0, nil, false)
	if !rep.Completed || rep.Err != nil {
		t.Fatalf("clean boot: %+v", rep)
	}
	before := w.sumApplied()
	rep = w.Boot(1, nil, true)
	if rep.Crashed || rep.Completed || rep.Err != nil {
		t.Fatalf("degraded boot: %+v", rep)
	}
	if after := w.sumApplied(); after != before {
		t.Errorf("degraded boot applied effects: %d -> %d", before, after)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}

package bench

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/resilience"
)

func testResilienceConfig(t *testing.T) ResilienceConfig {
	cfg := DefaultResilienceConfig()
	cfg.Crashes = 120
	cfg.Iters = 90
	cfg.ServerCrashes = 30
	cfg.Requests = 12
	if testing.Short() {
		cfg.Crashes = 40
		cfg.Iters = 30
		cfg.ServerCrashes = 10
		cfg.Requests = 6
	}
	return cfg
}

func TestTableResilience(t *testing.T) {
	h := &Harness{}
	rows, err := TableResilience(h, testResilienceConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every boot of the three supervised rows and both campaigns'
	// calibration runs went through the harness.
	if want := rows[0].Boots + rows[1].Boots + rows[2].Boots + 2; h.Stats.Runs != want {
		t.Errorf("harness counted %d runs, want %d", h.Stats.Runs, want)
	}
	want := map[string]bool{
		"vmach/crash-campaign":    false,
		"uniproc/server-campaign": false,
		"uniproc/degraded-cycle":  false,
		"mcheck/exactly-once":     false,
	}
	for _, r := range rows {
		want[r.Scenario] = true
		switch r.Scenario {
		case "vmach/crash-campaign", "uniproc/server-campaign":
			if r.RecCrashes == 0 {
				t.Errorf("%s: no crash landed inside recovery", r.Scenario)
			}
			if r.Avail <= 0 || r.Avail >= 1 {
				t.Errorf("%s: availability %v not in (0,1) — backoff or up-cycles accounting is gone", r.Scenario, r.Avail)
			}
		case "uniproc/degraded-cycle":
			if r.Demotions != 1 || r.Degraded < 2 {
				t.Errorf("degraded cycle: demotions=%d degraded=%d, want 1 and >=2", r.Demotions, r.Degraded)
			}
		}
	}
	for sc, seen := range want {
		if !seen {
			t.Errorf("table is missing scenario %s", sc)
		}
	}

	// Every campaign row's plan line must be a valid one-line repro: the
	// canonical string must parse back to a plan that schedules the same
	// crashes (FuzzChaosPlan fuzzes the same round trip).
	text := FormatResilience(rows)
	plans := 0
	for _, r := range rows {
		if !strings.HasPrefix(r.Plan, "crashplan:") {
			continue
		}
		plans++
		if !strings.Contains(text, r.Plan) {
			t.Errorf("%s: plan %q not printed as a repro line", r.Scenario, r.Plan)
		}
		back, err := chaos.ParseCrashPlan(r.Plan)
		if err != nil {
			t.Errorf("%s: plan line does not round-trip: %v", r.Scenario, err)
			continue
		}
		if back.String() != r.Plan {
			t.Errorf("%s: plan %q reparsed as %q", r.Scenario, r.Plan, back.String())
		}
	}
	if plans < 2 {
		t.Errorf("only %d crashplan repro lines; both campaign rows must carry one", plans)
	}
}

// The campaign is deterministic: same seed, same table, cell for cell.
func TestTableResilienceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tables")
	}
	cfg := testResilienceConfig(t)
	a, err := TableResilience(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableResilience(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if FormatResilience(a) != FormatResilience(b) {
		t.Errorf("same seed produced different tables:\n%s\nvs\n%s", FormatResilience(a), FormatResilience(b))
	}
}

// Plan seeds 1–40 of the E27 step campaign all complete and pass the
// exactly-once audit. While a clean crash kept the persistence model's
// stale NVM images, a later volatile or torn crash reverted lines to
// them and 12 of these seeds failed with a double apply.
func TestResilienceStepPlansExactlyOnce(t *testing.T) {
	cfg := DefaultResilienceConfig()
	for seed := uint64(1); seed <= 40; seed++ {
		plan := &chaos.CrashPlan{Seed: seed, Point: chaos.PointStep, Span: 230, Crashes: 1000,
			WClean: 1, WVolatile: 2, WTorn: 1}
		world, scfg := ResilienceCampaign(&Harness{}, cfg, plan)
		if out, err := resilience.Supervise(world, scfg); err != nil || !out.Completed {
			t.Errorf("%s: %v (%v)", plan, err, out)
		}
	}
}

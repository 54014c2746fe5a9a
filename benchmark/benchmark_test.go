package main

import (
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/resilience"
)

// TestWorkloadsSmoke runs every workload at smoke size twice untraced and
// once traced: all outputs correct, simulated results bit-identical
// across the three runs, and the traced run's self times conserved.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var sims []map[string]float64
			var events []float64
			for _, trace := range []bool{false, false, true} {
				w, err := newWorkload(name, 7, true)
				if err != nil {
					t.Fatal(err)
				}
				res, tr, err := measureRun(name, w, 7, 0, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				sims = append(sims, w.simulated())
				if trace {
					checkSelfTimes(t, tr)
					continue
				}
				for _, m := range endToEnd {
					if v := res.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", m.name, v)
					}
				}
				events = append(events, res.Metrics["sim_events_per_unit"].Value)
			}
			if math.Float64bits(events[0]) != math.Float64bits(events[1]) {
				t.Errorf("sim_events_per_unit differs between runs: %v vs %v", events[0], events[1])
			}
			for k, v := range sims[0] {
				for i, s := range sims[1:] {
					if math.Float64bits(s[k]) != math.Float64bits(v) {
						t.Errorf("%s: run %d reads %v, run 0 reads %v", k, i+1, s[k], v)
					}
				}
			}
		})
	}
}

// checkSelfTimes: every nested span lies under the workload span, so the
// self times of all of them must add up to its duration exactly.
func checkSelfTimes(t *testing.T, tr *tracer) {
	t.Helper()
	var self int64
	for k, tot := range tr.totals {
		if spanKind(k) != kindRequest { // free-standing, not nested
			self += tot.self
		}
	}
	if root := tr.totals[kindWorkload]; root.count != 1 || self != root.dur {
		t.Errorf("self times sum to %d ns, workload span is %d ns (%d workload spans)", self, root.dur, root.count)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	tr := newTracer()
	tr.begin()
	tr.begin()
	tr.end(kindNew, 0)
	tr.begin()
	tr.begin()
	tr.end(kindStateHash, 0)
	tr.end(kindRunTo, 0)
	parent := tr.end(kindEntry, 0)
	sum := tr.totals[kindEntry].self + tr.totals[kindNew].self + tr.totals[kindRunTo].self + tr.totals[kindStateHash].self
	if sum != parent {
		t.Fatalf("self times sum to %d, parent span is %d", sum, parent)
	}
	if got := tr.totals[kindEntry].children; got != 2 {
		t.Fatalf("entry has %d direct children, want 2", got)
	}
}

// TestE27Campaign runs experiment E27's own plan through the benchmark's
// campaign code: the inert injector on clean boots leaves boots and
// crashes as E27 has them, moves availability from 0.1202 to 0.1631, and
// the uptime split by kind of life adds up to the supervisor's uptime.
func TestE27Campaign(t *testing.T) {
	w := newVMCrash(1, false)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if w.window != 230 {
		t.Fatalf("calibrated window %d, E27 has 230", w.window)
	}
	plan := &chaos.CrashPlan{Seed: 1, Point: chaos.PointStep, Span: w.window,
		Crashes: 1000, WClean: 1, WVolatile: 2, WTorn: 1}
	m := &meter{inPrefix: true}
	out, err := w.campaign(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	if out.Boots != 1012 || out.Crashes != 981 || out.RecoveryCrashes != 264 {
		t.Errorf("boots=%d crashes=%d (rec %d), E27 has 1012, 981 (264)", out.Boots, out.Crashes, out.RecoveryCrashes)
	}
	if a := out.Availability(); math.Abs(a-0.1631) > 5e-5 {
		t.Errorf("availability %.4f with the inert injector, want 0.1631", a)
	}
	if sum := w.recovery + w.lost + w.degraded + w.useful; sum != out.UpCycles {
		t.Errorf("uptime split sums to %d steps, supervisor counted %d", sum, out.UpCycles)
	}
	if int64(out.Boots) != m.units {
		t.Errorf("%d boots reported as units, campaign had %d", m.units, out.Boots)
	}

	bare, err := resilience.Supervise(resilience.NewVMWorld(resilience.VMWorldConfig{Workers: 2, Iters: 700}),
		resilience.Config{Boots: plan.Boot, MaxBoots: 2024, CrashLoopK: 4, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a := bare.Availability(); math.Abs(a-0.1202) > 5e-5 || bare.Boots != out.Boots || bare.Crashes != out.Crashes {
		t.Errorf("without the inert injector: availability %.4f boots %d crashes %d, want 0.1202 and the same boots and crashes",
			a, bare.Boots, bare.Crashes)
	}
}

// TestCatalogueMatchesSpec: the metrics the benchmark prints are the ones
// BENCHMARK.json declares, with the same units, and exact metrics are
// exactly those a workload reports as simulated.
func TestCatalogueMatchesSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("spec has %d workloads, benchmark %d", len(sp.Workloads), len(workloadNames))
	}
	for i, wl := range sp.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: spec %q, benchmark %q", i, wl.Name, workloadNames[i])
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d/%d metrics, benchmark %d/%d", len(sp.EndToEnd), len(sp.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range sp.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: spec %s %s, benchmark %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	exact := map[string]bool{}
	for i, m := range sp.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: spec %s %s, benchmark %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		exact[m.Name] = perLayer[i].exact
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		for k := range w.simulated() {
			if !exact[k] {
				t.Errorf("%s reports %s as simulated, but the catalogue does not mark it exact", name, k)
			}
		}
	}
}

func TestVerdicts(t *testing.T) {
	base := map[uint64]float64{1: 1.00, 2: 1.01, 3: 0.99, 4: 1.00}
	scaled := func(f float64) map[uint64]float64 {
		out := map[uint64]float64{}
		for s, v := range base {
			out[s] = v * f
		}
		return out
	}
	noisy := map[uint64]float64{1: 0.7, 2: 1.3, 3: 1.0, 4: 0.8}
	for _, c := range []struct {
		next   map[uint64]float64
		higher bool
		want   string
	}{
		{scaled(1.02), false, "same"},
		{scaled(1.20), false, "worse"},
		{scaled(0.80), false, "better"},
		{scaled(1.20), true, "better"},
		{noisy, false, "unresolved"},
	} {
		if got := boundedVerdict(base, c.next, c.higher, 0.1); got != c.want {
			t.Errorf("boundedVerdict(%v, higher=%v) = %s, want %s", c.next, c.higher, got, c.want)
		}
	}
	if got := exactVerdict(base, scaled(1), 1, 1, false); got != "same" {
		t.Errorf("identical exact metric: %s, want same", got)
	}
	if got := exactVerdict(base, scaled(1.001), 1, 1.001, false); got != "worse" {
		t.Errorf("exact metric up 0.1%%, lower is better: %s, want worse", got)
	}
}

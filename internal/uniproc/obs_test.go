package uniproc

import (
	"testing"

	"repro/internal/obs"
)

// obsWorkload is the trace_test workload: RAS lock traffic with yields,
// producing restarts, preemptions, and all three memory-op kinds.
func obsWorkload(p *Processor) {
	var lock Word
	p.Go("main", func(e *Env) {
		for i := 0; i < 200; i++ {
			for rasTAS(e, &lock) != 0 {
				e.Yield()
			}
			e.Store(&lock, 0)
		}
	})
	p.Go("peer", func(e *Env) {
		for i := 0; i < 100; i++ {
			e.Load(&lock)
			e.Yield()
		}
	})
}

func TestRuntimeBusMetricsMatchStats(t *testing.T) {
	p := New(Config{Quantum: 37})
	pm := obs.NewPaperMetrics(nil)
	p.Tracer = pm
	obsWorkload(p)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Restarts == 0 || p.Stats.Suspensions == 0 {
		t.Fatalf("workload produced no restarts/suspensions (restarts=%d susp=%d)",
			p.Stats.Restarts, p.Stats.Suspensions)
	}
	if got := pm.Restarts.Value(); got != p.Stats.Restarts {
		t.Errorf("restarts_total = %d, stats = %d", got, p.Stats.Restarts)
	}
	// Runtime suspensions split into real preemptions (Arg 0) and spurious
	// ones; their sum is the stats counter.
	if got := pm.Preemptions.Value() + pm.Spurious.Value(); got != p.Stats.Suspensions {
		t.Errorf("preemptions+spurious = %d, stats suspensions = %d", got, p.Stats.Suspensions)
	}
	if pm.Dispatches.Value() == 0 {
		t.Error("metrics saw no dispatches")
	}
}

func TestRuntimeBusExportsValidChromeTrace(t *testing.T) {
	p := New(Config{Quantum: 37})
	cap := &obs.Capture{}
	p.Tracer = cap
	obsWorkload(p)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := obs.ChromeTrace(cap.Events())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatalf("runtime trace fails validation: %v", err)
	}
}

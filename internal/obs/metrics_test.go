package obs

import (
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x")
	c2 := r.Counter("x_total", "ignored")
	if c1 != c2 {
		t.Error("counter not shared by name")
	}
	c1.Inc()
	c1.Add(4)
	if r.CounterValue("x_total") != 5 {
		t.Errorf("counter = %d, want 5", r.CounterValue("x_total"))
	}
	if r.CounterValue("absent_total") != 0 {
		t.Error("absent counter should read 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", []uint64{10, 100})
	for _, v := range []uint64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5556 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || bounds[2] != ^uint64(0) {
		t.Fatalf("bounds = %v", bounds)
	}
	// <=10: 2, <=100: 3 cumulative, overflow: 5 cumulative.
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 5 {
		t.Errorf("cumulative = %v", cum)
	}
	if h.Mean() != 5556.0/5 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 10)) // edges 1..512
	// 100 observations: 50 at ≤4, 45 at ≤64, 5 at ≤512.
	for i := 0; i < 50; i++ {
		h.Observe(3)
	}
	for i := 0; i < 45; i++ {
		h.Observe(60)
	}
	for i := 0; i < 5; i++ {
		h.Observe(400)
	}
	cases := []struct {
		q    float64
		want uint64
	}{
		{0, 4}, {0.5, 4}, {0.51, 64}, {0.95, 64}, {0.96, 512}, {0.99, 512}, {1, 512},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.P50() != 4 || h.P95() != 64 || h.P99() != 512 {
		t.Errorf("P50/P95/P99 = %d/%d/%d", h.P50(), h.P95(), h.P99())
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]uint64{10})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	h.Observe(1000) // overflow bucket
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("overflow quantile = %d, want saturation at 10", got)
	}
	if got := h.Quantile(-1); got != 10 {
		t.Errorf("clamped q<0 = %d", got)
	}
	empty := NewHistogram(nil)
	empty.Observe(7)
	if empty.Quantile(0.5) != 0 {
		t.Error("no-bucket histogram quantile not 0")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(16, 4)
	want := []uint64{16, 32, 64, 128}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if got := ExpBuckets(0, 2); got[0] != 1 {
		t.Errorf("zero first bound = %v", got)
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first").Inc()
	r.Histogram("lat", "latency", []uint64{8}).Observe(3)
	d := r.Dump()
	if !strings.Contains(d, "a_total") || !strings.Contains(d, "b_total") || !strings.Contains(d, "lat:") {
		t.Fatalf("dump missing entries:\n%s", d)
	}
	if strings.Index(d, "a_total") > strings.Index(d, "b_total") {
		t.Error("dump not sorted by name")
	}
}

func TestPaperMetricsDerivesFromEvents(t *testing.T) {
	pm := NewPaperMetrics(nil)
	events := []Event{
		{Type: KindRestart},
		{Type: KindRestart},
		{Type: KindPreempt, Arg: 0},
		{Type: KindPreempt, Arg: 1}, // spurious
		{Type: KindEmulTrap},
		{Type: KindRepair, Arg: 3},
		{Type: KindDemote},
		{Type: KindPromote},
		{Type: KindWatchdog, Arg: 32},
		{Type: KindKill},
		{Type: KindCrash},
		{Type: KindInject, Arg: 9},
		{Type: KindSyscall},
		{Type: KindPageFault},
		{Type: KindDispatch},
	}
	for _, e := range events {
		pm.Event(e)
	}
	checks := []struct {
		c    *Counter
		want uint64
	}{
		{pm.Restarts, 2}, {pm.Preemptions, 1}, {pm.Spurious, 1},
		{pm.EmulTraps, 1}, {pm.Repairs, 1}, {pm.Demotions, 1},
		{pm.Promotions, 1}, {pm.Watchdogs, 1}, {pm.Kills, 1},
		{pm.Crashes, 1}, {pm.Injections, 1}, {pm.Syscalls, 1},
		{pm.PageFaults, 1}, {pm.Dispatches, 1},
	}
	for _, ck := range checks {
		if ck.c.Value() != ck.want {
			t.Errorf("%s = %d, want %d", ck.c.Name(), ck.c.Value(), ck.want)
		}
	}
	pm.Passage.Observe(40)
	if !strings.Contains(pm.Dump(), "rme_passage_cycles: count=1") {
		t.Error("passage histogram missing from dump")
	}
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number. Exact metrics are simulated results:
// they are a pure function of the seed, so two builds of the same code
// must report them identically.
type metric struct {
	name, unit string
	exact      bool
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. Workload-specific simulated results (cycles per passage,
// availability, ...) are per-layer metrics: every end-to-end metric must
// be meaningful, and non-zero, on all four workloads.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "pass_s", unit: "s"},
	{name: "unit_us_p50", unit: "us"},
	{name: "unit_us_p99", unit: "us"},
	{name: "sim_mips", unit: "M/s"},
	{name: "alloc_kb_per_unit", unit: "KB"},
	{name: "peak_heap_mb", unit: "MB"},
	{name: "sim_events_per_unit", unit: "count", exact: true},
}

// suiteModels are the mcheck registry keys the suite covers; each gets an
// mcheck.entry_s.<model> metric.
var suiteModels = []string{
	"counter", "broken2store", "recoverable", "smp-counter", "uni-counter",
	"uni-rme", "persist", "journal", "memfs-journal", "pstruct",
	"percpu-queue", "percpu-freelist", "percpu-server", "qlock-queue",
	"qlock-rec", "resilience",
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for its metrics.
var perLayer = func() []metric {
	ms := []metric{
		{name: "trace.pass_s", unit: "s"},
		{name: "asm.assemble_ms", unit: "ms"},
		{name: "isa.decode_ns", unit: "ns"},
		{name: "vmach.step_ns", unit: "ns"},
		{name: "vmach.share", unit: "ratio"},
	}
	for _, n := range []string{"instructions", "loads", "stores", "interlocked"} {
		ms = append(ms, metric{name: "vmach." + n, unit: "count", exact: true})
	}
	for _, n := range []string{"dispatch", "suspend", "restart", "syscall", "page_fault"} {
		ms = append(ms, metric{name: "kernel." + n + "_ns", unit: "ns"})
	}
	ms = append(ms, metric{name: "kernel.share", unit: "ratio"})
	for _, n := range []string{"suspensions", "restarts", "emul_traps", "syscalls", "page_faults", "check_rejects", "watchdog_extends"} {
		ms = append(ms, metric{name: "kernel." + n, unit: "count", exact: true})
	}
	ms = append(ms,
		metric{name: "kernel.useful_seq_ratio", unit: "ratio", exact: true},
		metric{name: "kernel.cycles_per_passage", unit: "cycles", exact: true})
	for _, k := range bootKinds {
		ms = append(ms, metric{name: "kernel.boot_us_p50." + k, unit: "us"})
	}
	for _, n := range []string{"new", "run_to", "run_to_end", "state_hash", "dfs_self", "shrink"} {
		ms = append(ms, metric{name: "mcheck." + n + "_s", unit: "s"})
	}
	for _, n := range []string{"schedules", "states", "pruned"} {
		ms = append(ms, metric{name: "mcheck." + n, unit: "count", exact: true})
	}
	ms = append(ms, metric{name: "mcheck.prune_ratio", unit: "ratio", exact: true})
	for _, m := range suiteModels {
		ms = append(ms, metric{name: "mcheck.entry_s." + m, unit: "s"})
	}
	for _, n := range []string{"memops", "switches", "suspensions", "restarts", "yields", "blocks"} {
		ms = append(ms, metric{name: "uniproc." + n, unit: "count", exact: true})
	}
	ms = append(ms,
		metric{name: "uniproc.ns_per_memop", unit: "ns"},
		metric{name: "uniproc.yield_ns", unit: "ns"})
	for _, op := range uxOps {
		ms = append(ms, metric{name: "uxserver." + op.name + "_us_p50", unit: "us"})
	}
	for _, op := range uxOps {
		ms = append(ms, metric{name: "uxserver." + op.name + "_cycles_p50", unit: "cycles", exact: true})
	}
	ms = append(ms,
		metric{name: "uxserver.cycles_per_req", unit: "cycles", exact: true},
		metric{name: "uxserver.req_cycles_p99", unit: "cycles", exact: true},
		metric{name: "percpu.batches", unit: "count", exact: true},
		metric{name: "percpu.mean_batch", unit: "count", exact: true},
		metric{name: "percpu.steals", unit: "count", exact: true})
	for _, n := range []string{"boots", "crashes", "recovery_crashes", "demotions", "degraded_boots"} {
		ms = append(ms, metric{name: "resilience." + n, unit: "count", exact: true})
	}
	ms = append(ms, metric{name: "resilience.backoff_cycles", unit: "cycles", exact: true})
	for _, n := range []string{"recovery", "lost_in_recovery", "degraded", "useful"} {
		ms = append(ms, metric{name: "resilience." + n + "_steps", unit: "steps", exact: true})
	}
	ms = append(ms,
		metric{name: "resilience.availability", unit: "ratio", exact: true},
		metric{name: "resilience.recovery_steps_p95", unit: "steps", exact: true},
		metric{name: "resilience.useful_boot_ratio", unit: "ratio", exact: true},
		metric{name: "resilience.supervise_self_us", unit: "us"})
	return ms
}()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow first setup (page faults, heap growth) does not
// decide it.
const setupRepeats = 9

// workload is one benchmark input set. A run sets it up setupRepeats
// times, then measures whole passes — fixed work derived from the seed
// and the pass index — until the run's time is up and at least prefix()
// passes are done. Simulated results are accumulated over the first
// prefix() passes only, so they are exact for a seed however fast the
// host is.
type workload interface {
	// setup builds the inputs and runs one warm-up unit.
	setup() error
	// prefix is the number of passes every run completes.
	prefix() int
	// pass runs pass i, reporting every unit to m.
	pass(i int, m *meter)
	// simulated returns the per-layer simulated results of the prefix
	// passes: exact metrics, identical in traced and untraced runs.
	simulated() map[string]float64
	// timings returns the per-layer host timings of a traced run.
	timings(t *tracer) map[string]float64
}

// meter collects what passes report. Work is measured in chunks of
// 10-50 ms, each followed by a probe of the host's speed (see probe);
// host times are kept as multiples of the adjacent probe and scaled by
// the run's fastest probe at the end.
type meter struct {
	tr       *tracer // nil in an untraced run
	inPrefix bool    // the current pass is one of the first prefix() passes

	chunkStart time.Time
	pending    []float64 // latencies of the units in the open chunk
	lat        reservoir // unit latency over its chunk's probe
	passWork   float64   // the open pass's time over its chunks' probes
	minProbe   float64
	probeTime  time.Duration // spent probing, for spans that enclose probes
	chunks     int
	peakHeap   uint64 // largest live heap at the sampled chunk ends

	units, failed          int64
	events                 uint64 // simulated events over all passes
	prefixUnits, prefixEvs uint64 // over the prefix passes
}

// unit records one finished unit: its host latency and the simulated
// events it executed. A unit whose output is wrong also counts in failed.
func (m *meter) unit(lat time.Duration, events uint64) {
	m.pending = append(m.pending, float64(lat))
	m.units++
	if m.inPrefix {
		m.prefixUnits++
	}
	m.addEvents(events)
}

// heapEvery is how often, in chunks, a prefix pass samples the live heap.
const heapEvery = 16

// endChunk closes the open chunk with a probe and opens the next.
func (m *meter) endChunk() {
	raw := float64(time.Since(m.chunkStart))
	if m.inPrefix && m.chunks%heapEvery == 0 {
		m.sampleHeap()
	}
	m.chunks++
	p := m.probe()
	m.passWork += raw / p
	for _, l := range m.pending {
		m.lat.add(l / p)
	}
	m.pending = m.pending[:0]
	m.chunkStart = time.Now()
}

// sampleHeap collects garbage and records the live heap. Sampled at the
// same chunk ends of the prefix in every run, the peak is a property of
// the seed, not of when the collector happened to run; the collection
// falls between chunks, outside the timed work.
func (m *meter) sampleHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	m.peakHeap = max(m.peakHeap, s[0].Value.Uint64())
}

func (m *meter) probe() float64 {
	var p time.Duration
	m.probeTime += m.timed(kindProbe, 0, func() { p = probe() })
	if m.minProbe == 0 || float64(p) < m.minProbe {
		m.minProbe = float64(p)
	}
	return float64(p)
}

// probeTable is the probe's working set. Go map lookups slow down on a
// busy shared host about as much as the workloads do (by 50-65% in
// measured bursts, against 30% for an arithmetic loop), so the probe
// tracks the host's speed from moment to moment.
var probeTable = func() map[uint32]uint32 {
	t := make(map[uint32]uint32, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		t[i*2654435761] = i
	}
	return t
}()

var probeSink uint32

// probe measures the host's current speed: after an untimed run that
// brings the table back into the caches the workload evicted, the
// fastest of four short timed runs of lookups, about 50 us on an idle
// host. The minimum filters out the few microseconds of this process's
// own background work (the garbage collector, idle scheduler threads)
// that follow a chunk.
func probe() time.Duration {
	probeLookups(10_000)
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		probeLookups(5_000)
		best = min(best, time.Since(t0))
	}
	return best
}

func probeLookups(n int) {
	x := uint64(88172645463325252)
	var acc uint32
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += probeTable[uint32(x&0xFFFF)*2654435761]
	}
	probeSink += acc
}

// timed runs f, as a span of kind when tracing, and returns its host
// duration.
func (m *meter) timed(kind spanKind, unit int64, f func()) time.Duration {
	if m.tr == nil {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	m.tr.begin()
	f()
	return time.Duration(m.tr.end(kind, unit))
}

// addEvents counts simulated events that no single unit owns.
func (m *meter) addEvents(n uint64) {
	m.events += n
	if m.inPrefix {
		m.prefixEvs += n
	}
}

// counts is an exact histogram of integer simulated quantities.
type counts map[uint64]uint64

// quantile is the nearest-rank q-quantile; 0 if empty.
func (c counts) quantile(q float64) float64 {
	keys := make([]uint64, 0, len(c))
	var n uint64
	for k, v := range c {
		keys = append(keys, k)
		n += v
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for _, k := range keys {
		if seen += c[k]; seen >= rank {
			return float64(k)
		}
	}
	return 0
}

// failuresPrinted counts reportFailure lines; after the first few, one
// failing unit is enough to reproduce the rest.
var failuresPrinted int

// reportFailure prints a failed unit with its one-line reproducer: the
// same workload and seed give the same inputs, so rerunning them fails
// at the same unit.
func reportFailure(workload string, seed uint64, format string, args ...any) {
	if failuresPrinted++; failuresPrinted > 10 {
		return
	}
	fmt.Fprintf(os.Stderr, "FAIL %s: %s (repro: bash benchmark/run.sh -workload %s -seed %d)\n",
		workload, fmt.Sprintf(format, args...), workload, seed)
}

// reservoir keeps a uniform, seeded sample of at most reservoirCap
// values, so percentiles over millions of units cost constant memory.
type reservoir struct {
	keep []float64
	n    uint64
	rng  uint64
}

const reservoirCap = 1 << 16

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.keep) < reservoirCap {
		r.keep = append(r.keep, v)
		return
	}
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	if j := (r.rng >> 11) % r.n; j < reservoirCap {
		r.keep[j] = v
	}
}

// quantile interpolates linearly between the closest ranks; 0 if empty.
func (r *reservoir) quantile(q float64) float64 { return quantile(r.keep, q) }

func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is one run's outcome.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Passes     int                `json:"-"`
	Samples    int                `json:"-"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureRun sets w up, measures it for at least seconds, and returns
// the end-to-end metrics, or with trace the per-layer ones.
//
// A shared host's speed swings by up to 2x over minutes as other tenants
// come and go, and a plain wall-clock median follows it. Every host time
// below is therefore scaled by the run's fastest probe over the probe
// taken right after the work: on an idle host it reads as plain seconds.
func measureRun(name string, w workload, seed uint64, seconds float64, trace bool) (result, *tracer, error) {
	m := &meter{lat: reservoir{rng: seed}}
	if trace {
		m.tr = newTracer()
		m.tr.begin()
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, float64(time.Since(t0))/m.probe())
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var passes []float64
	for i := 0; i < w.prefix() || time.Since(start).Seconds() < seconds; i++ {
		m.inPrefix = i < w.prefix()
		m.passWork, m.chunkStart = 0, time.Now()
		m.timed(kindPass, int64(i), func() {
			w.pass(i, m)
			m.endChunk()
		})
		passes = append(passes, m.passWork)
	}
	runtime.ReadMemStats(&ms1)
	sec := m.minProbe / 1e9 // seconds per probe-relative unit of time
	var work float64
	for _, p := range passes {
		work += p
	}

	res := result{Workload: name, Seed: seed, Trace: trace, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Passes: len(passes), Samples: len(m.lat.keep), Correct: m.failed == 0,
		Attempted: m.units, Failed: m.failed, Metrics: map[string]measure{}}
	var vals map[string]float64
	if trace {
		m.tr.end(kindWorkload, 0)
		vals = w.simulated()
		for k, v := range w.timings(m.tr) {
			vals[k] = v
		}
		vals["trace.pass_s"] = quantile(passes, 0.5) * sec
	} else {
		vals = map[string]float64{
			"setup_s":             quantile(setups, 0.5) * sec,
			"pass_s":              quantile(passes, 0.5) * sec,
			"unit_us_p50":         m.lat.quantile(0.50) * sec * 1e6,
			"unit_us_p99":         m.lat.quantile(0.99) * sec * 1e6,
			"sim_mips":            float64(m.events) / (work * sec) / 1e6,
			"alloc_kb_per_unit":   ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(m.units)),
			"peak_heap_mb":        float64(m.peakHeap) / (1 << 20),
			"sim_events_per_unit": ratio(float64(m.prefixEvs), float64(m.prefixUnits)),
		}
	}
	set := endToEnd
	if trace {
		set = perLayer
	}
	for _, mt := range set {
		res.Metrics[mt.name] = measure{Value: finite(vals[mt.name]), Unit: mt.unit}
		delete(vals, mt.name)
	}
	if len(vals) > 0 {
		panic(fmt.Sprintf("benchmark: %s computed metrics outside the catalogue: %v", name, vals))
	}
	return res, m.tr, nil
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

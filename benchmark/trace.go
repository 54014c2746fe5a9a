package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanKind names a layer boundary the benchmark times from outside: a
// call into a public function or through a wrapped public interface.
type spanKind uint8

const (
	kindWorkload spanKind = iota
	kindPass
	kindUnit
	kindStep // Kernel.StepOne that only retired an instruction
	kindDispatch
	kindSuspend
	kindRestart
	kindSyscall
	kindPageFault
	kindEntry // one mcheck suite entry
	kindNew
	kindRunTo
	kindRunToEnd
	kindStateHash
	kindSupervise
	kindBoot
	kindCheck
	kindRequest
	kindProbe
	numKinds
)

var kindNames = [numKinds]string{
	"workload", "pass", "unit", "vmach.step", "kernel.dispatch", "kernel.suspend",
	"kernel.restart", "kernel.syscall", "kernel.page_fault", "mcheck.entry",
	"mcheck.new", "mcheck.run_to", "mcheck.run_to_end", "mcheck.state_hash",
	"resilience.supervise", "resilience.boot", "resilience.check", "uxserver.request",
	"probe",
}

// maxSpans bounds the spans kept for the Chrome trace; every span still
// feeds the per-kind totals.
const maxSpans = 1 << 16

// span is one timed interval. Times are nanoseconds since the tracer
// started; parent is an index into tracer.spans, -1 at the root.
type span struct {
	kind       spanKind
	tid        int32
	parent     int32
	unit       int64
	start, dur int64
}

// kindTotals aggregates every span of one kind. Self time is duration
// minus the durations of the span's children.
type kindTotals struct {
	count, children int64
	dur, self       int64
}

type frame struct {
	start, childDur, children int64
	idx                       int32
}

// tracer records nested spans on one goroutine's stack discipline, plus
// free-standing spans (record) for intervals that overlap, such as the
// requests of concurrent clients.
type tracer struct {
	epoch  time.Time
	stack  []frame
	totals [numKinds]kindTotals
	spans  []span
	// emptyDur is the calibrated duration an empty span reports; it is
	// subtracted from every span. perSpan is the full cost of one
	// begin/end pair as seen from the enclosing span.
	emptyDur, perSpan int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.calibrate()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// calibrate measures the timer cost: emptyDur is the median duration of
// an empty span, perSpan the mean cost of a begin/end pair.
func (t *tracer) calibrate() {
	const n = 4096
	c := &tracer{epoch: t.epoch}
	start := c.now()
	for i := 0; i < n; i++ {
		c.begin()
		c.end(kindWorkload, 0)
	}
	t.perSpan = (c.now() - start) / n
	durs := make([]float64, 0, n)
	for _, s := range c.spans {
		durs = append(durs, float64(s.dur))
	}
	t.emptyDur = int64(quantile(durs, 0.5))
}

// begin opens a span; the matching end names it.
func (t *tracer) begin() {
	f := frame{idx: -1}
	if len(t.spans) < maxSpans {
		f.idx = int32(len(t.spans))
		parent := int32(-1)
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].idx
		}
		t.spans = append(t.spans, span{parent: parent})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

// end closes the innermost open span as kind, for unit, and returns its
// duration.
func (t *tracer) end(kind spanKind, unit int64) int64 {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - f.start - t.emptyDur
	if dur < 0 {
		dur = 0
	}
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.childDur += dur
		p.children++
	}
	tot := &t.totals[kind]
	tot.count++
	tot.children += f.children
	tot.dur += dur
	tot.self += dur - f.childDur
	if f.idx >= 0 {
		s := &t.spans[f.idx]
		s.kind, s.unit, s.start, s.dur = kind, unit, f.start, dur
	}
	return dur
}

// record adds a span that does not nest in the stack discipline: it has
// its own track (tid), no children, and does not count against its
// parent's self time.
func (t *tracer) record(kind spanKind, tid int32, unit int64, start time.Time, dur time.Duration) {
	tot := &t.totals[kind]
	tot.count++
	tot.dur += int64(dur)
	tot.self += int64(dur)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].idx
		}
		t.spans = append(t.spans, span{kind: kind, tid: tid, parent: parent, unit: unit,
			start: int64(start.Sub(t.epoch)), dur: int64(dur)})
	}
}

// trueSelf is kind's total self time without the instrumentation of its
// children, which lands in the parent.
func (t *tracer) trueSelf(k spanKind) float64 {
	s := float64(t.totals[k].self - t.totals[k].children*(t.perSpan-t.emptyDur))
	return max(s, 0)
}

// mean is the average duration of kind's spans in nanoseconds.
func (t *tracer) mean(k spanKind) float64 {
	return ratio(float64(t.totals[k].dur), float64(t.totals[k].count))
}

// writeChrome writes the kept spans as Chrome trace-event JSON, one
// complete ("X") event per span, loadable in Perfetto.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{Name: kindNames[s.kind], Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.dur) / 1e3, PID: 1, TID: s.tid,
			Args: map[string]any{"unit": s.unit, "parent": s.parent, "workload": workload}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChaosTID is the synthetic track carrying chaos-injection instant events
// in exported Chrome traces, far above any real thread ID.
const ChaosTID = 1000000

// ChromeEvent is one entry of the Chrome trace-event format (the JSON
// array format Perfetto and chrome://tracing load). Virtual cycles map
// 1:1 onto the format's microsecond timestamps.
type ChromeEvent struct {
	Name  string                 `json:"name"`
	Phase string                 `json:"ph"`
	TS    uint64                 `json:"ts"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// ChromeDoc is the JSON-object container variant of the format.
type ChromeDoc struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// suspends reports whether an event ends its thread's running slice.
func suspends(k Kind) bool {
	switch k {
	case KindPreempt, KindYield, KindBlock, KindExit, KindFault, KindKill, KindCrash:
		return true
	}
	return false
}

// track identifies one exported Chrome track: a (process, thread) pair.
// The exporter maps each source CPU to a Chrome process, so an SMP stream
// renders as one track group per CPU; uniprocessor streams all land in
// process 0.
type track struct{ pid, tid int }

// ChromeWriter is a Sink that converts each event into Chrome trace-event
// JSON as it arrives and streams it to an io.Writer: one process group
// per CPU, one track per thread whose "running" slices are bounded by
// dispatch and suspension events, instant events for everything else on
// the owning thread's track, and every chaos injection mirrored as an
// instant on the dedicated ChaosTID track of the injecting CPU's group.
// It holds only per-track state, so a trace costs memory in its tracks,
// not its events. The bytes are those of json.MarshalIndent(doc, "", " ")
// over the whole document, written one event at a time.
type ChromeWriter struct {
	w         *bufio.Writer
	tracks    map[track]bool // named tracks -> has an open "running" slice
	procNamed map[int]bool   // pid -> process_name metadata emitted
	last      uint64         // highest cycle seen
	n         int            // Chrome events written
}

// NewChromeWriter starts a Chrome trace document on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	c := &ChromeWriter{w: bufio.NewWriter(w), tracks: map[track]bool{}, procNamed: map[int]bool{}}
	c.w.WriteString("{\n \"traceEvents\": [")
	return c
}

// Event implements Sink.
func (c *ChromeWriter) Event(ev Event) {
	if ev.Cycle > c.last {
		c.last = ev.Cycle
	}
	tr := track{pid: ev.CPU, tid: ev.Thread}
	c.name(tr)
	if ev.Type == KindDispatch {
		if c.tracks[tr] { // defensive: never emit unbalanced B
			c.emit(ChromeEvent{Name: "running", Phase: "E", TS: ev.Cycle, PID: tr.pid, TID: tr.tid})
		}
		c.tracks[tr] = true
		c.emit(ChromeEvent{Name: "running", Phase: "B", TS: ev.Cycle, PID: tr.pid, TID: tr.tid})
	} else {
		args := map[string]interface{}{"arg": ev.Arg}
		if ev.PC != 0 {
			args["pc"] = fmt.Sprintf("%#08x", ev.PC)
		}
		c.emit(ChromeEvent{Name: ev.Type.String(), Phase: "i", TS: ev.Cycle, PID: tr.pid, TID: tr.tid, Scope: "t", Args: args})
		if suspends(ev.Type) && c.tracks[tr] {
			c.tracks[tr] = false
			c.emit(ChromeEvent{Name: "running", Phase: "E", TS: ev.Cycle, PID: tr.pid, TID: tr.tid})
		}
	}
	if ev.Type == KindInject {
		c.name(track{pid: ev.CPU, tid: ChaosTID})
		c.emit(ChromeEvent{Name: "inject", Phase: "i", TS: ev.Cycle, PID: ev.CPU, TID: ChaosTID, Scope: "t",
			Args: map[string]interface{}{"action": fmt.Sprintf("%#x", ev.Arg), "thread": ev.Thread}})
	}
}

// Close ends slices still open when the stream ends (a run cut short by
// a crash or the event horizon) at the last cycle seen, in (pid, tid)
// order so the bytes do not depend on map order, then finishes the
// document and flushes it. It does not close the underlying writer.
func (c *ChromeWriter) Close() error {
	var open []track
	for tr, isOpen := range c.tracks {
		if isOpen {
			open = append(open, tr)
		}
	}
	sort.Slice(open, func(i, j int) bool {
		return open[i].pid < open[j].pid || open[i].pid == open[j].pid && open[i].tid < open[j].tid
	})
	for _, tr := range open {
		c.emit(ChromeEvent{Name: "running", Phase: "E", TS: c.last, PID: tr.pid, TID: tr.tid})
	}
	if c.n > 0 {
		c.w.WriteString("\n ")
	}
	c.w.WriteString("],\n \"displayTimeUnit\": \"ns\"\n}")
	return c.w.Flush()
}

// name emits the process_name and thread_name metadata of a track the
// first time it appears.
func (c *ChromeWriter) name(tr track) {
	if tr.pid != 0 && !c.procNamed[tr.pid] {
		c.procNamed[tr.pid] = true
		c.emit(ChromeEvent{Name: "process_name", Phase: "M", PID: tr.pid,
			Args: map[string]interface{}{"name": fmt.Sprintf("cpu%d", tr.pid)}})
	}
	if _, ok := c.tracks[tr]; ok {
		return
	}
	c.tracks[tr] = false
	label := fmt.Sprintf("t%d", tr.tid)
	if tr.tid == ChaosTID {
		label = "chaos"
	}
	c.emit(ChromeEvent{Name: "thread_name", Phase: "M", PID: tr.pid, TID: tr.tid,
		Args: map[string]interface{}{"name": label}})
}

// emit writes one array element, indented as MarshalIndent indents the
// elements of the document's traceEvents array. The bufio.Writer keeps
// the first write error for Close.
func (c *ChromeWriter) emit(ce ChromeEvent) {
	data, _ := json.MarshalIndent(ce, "  ", " ") // a ChromeEvent always marshals
	if c.n > 0 {
		c.w.WriteByte(',')
	}
	c.n++
	c.w.WriteString("\n  ")
	c.w.Write(data)
}

// ChromeTrace renders an event stream as Chrome trace-event JSON.
func ChromeTrace(events []Event) ([]byte, error) {
	var b bytes.Buffer
	c := NewChromeWriter(&b)
	for _, ev := range events {
		c.Event(ev)
	}
	err := c.Close()
	return b.Bytes(), err
}

// DecodeChromeTrace parses Chrome trace-event JSON produced by ChromeTrace
// (or any tool emitting the object container format).
func DecodeChromeTrace(data []byte) (*ChromeDoc, error) {
	var doc ChromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	return &doc, nil
}

// ValidateChrome checks the structural invariants the exporter promises:
// timestamps are monotone non-decreasing per track (metadata events have
// no timestamp and are exempt), and every "B" slice open is matched by an
// "E" close on the same track. It returns the number of instant events on
// the chaos track, so callers can assert injections survived the round
// trip.
func ValidateChrome(doc *ChromeDoc) (chaosInstants int, err error) {
	lastTS := map[track]uint64{}
	depth := map[track]int{}
	for i, ev := range doc.TraceEvents {
		tr := track{pid: ev.PID, tid: ev.TID}
		switch ev.Phase {
		case "M":
			continue
		case "B":
			depth[tr]++
		case "E":
			depth[tr]--
			if depth[tr] < 0 {
				return 0, fmt.Errorf("event %d: slice end without begin on pid %d tid %d", i, ev.PID, ev.TID)
			}
		case "i", "I":
			if ev.TID == ChaosTID {
				chaosInstants++
			}
		default:
			return 0, fmt.Errorf("event %d: unknown phase %q", i, ev.Phase)
		}
		if prev, ok := lastTS[tr]; ok && ev.TS < prev {
			return 0, fmt.Errorf("event %d: timestamp %d < %d goes backwards on pid %d tid %d",
				i, ev.TS, prev, ev.PID, ev.TID)
		}
		lastTS[tr] = ev.TS
	}
	for tr, d := range depth {
		if d != 0 {
			return 0, fmt.Errorf("pid %d tid %d: %d unclosed slice(s)", tr.pid, tr.tid, d)
		}
	}
	return chaosInstants, nil
}

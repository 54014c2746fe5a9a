package obs

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
)

// Outputs are the observability outputs one command line asks for. A
// "-" destination means the writer Observer.Close is given.
type Outputs struct {
	Tail     int    // print the last Tail events (0: none)
	TraceOut string // Chrome trace destination
	Metrics  string // PaperMetrics dump destination
	Profile  int    // print the top Profile symbols of the cycle profile
	Folded   string // folded-stack cycle profile destination

	// CPUProfile is the file a pprof host CPU profile of everything
	// between NewObserver and Close goes to ("go tool pprof" reads it).
	CPUProfile string
}

// Observer produces a command line's Outputs. It is the one fan-out of
// the event stream: every event Trace publishes reaches the ring tail,
// the Chrome writer, which streams the trace as events arrive, and the
// PaperMetrics. Close writes them out with the cycle profiler's report
// and folded stacks.
type Observer struct {
	// Trace is the sink every run publishes into, one Advance per run;
	// nil when no event output is on.
	Trace *Rebase
	// Profiler is the cycle profiler -profile and -folded read, for the
	// caller to attach to its kernels; nil when neither is on.
	Profiler *CycleProfiler
	// TraceLine, when set, is the Printf format of the line Close prints
	// after writing the Chrome trace to a file, given its path and the
	// number of events published.
	TraceLine string

	out    Outputs
	ring   *Ring
	chrome *ChromeWriter
	file   *os.File // the trace file, or a temporary one for "-"
	pm     *PaperMetrics
	events uint64
	cpu    *os.File // the CPU profile, written from NewObserver to Close
}

// NewObserver builds the observer for out. The trace file is created now
// and written as events arrive; a "-" trace streams to a temporary file
// that Close copies out, so it lands after everything printed before. The
// host CPU profile starts now and stops in Close.
func NewObserver(out Outputs) (*Observer, error) {
	ob := &Observer{out: out}
	if out.Profile > 0 || out.Folded != "" {
		ob.Profiler = NewCycleProfiler()
	}
	if out.Tail > 0 {
		ob.ring = NewRing(out.Tail)
	}
	if out.TraceOut != "" {
		var err error
		if out.TraceOut == "-" {
			ob.file, err = os.CreateTemp("", "trace-*.json")
		} else {
			ob.file, err = os.Create(out.TraceOut)
		}
		if err != nil {
			return nil, err
		}
		ob.chrome = NewChromeWriter(ob.file)
	}
	if out.Metrics != "" {
		ob.pm = NewPaperMetrics(nil)
	}
	if ob.ring != nil || ob.chrome != nil || ob.pm != nil {
		ob.Trace = NewRebase(ob)
	}
	// Last, so that no error return leaves the profile running.
	if out.CPUProfile != "" {
		f, err := os.Create(out.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		ob.cpu = f
	}
	return ob, nil
}

// Event implements Sink.
func (ob *Observer) Event(ev Event) {
	ob.events++
	if ob.ring != nil {
		ob.ring.Event(ev)
	}
	if ob.chrome != nil {
		ob.chrome.Event(ev)
	}
	if ob.pm != nil {
		ob.pm.Event(ev)
	}
}

// Sink is Trace as a Sink, nil when no event output is on, for hooks
// that test their tracer against nil.
func (ob *Observer) Sink() Sink {
	if ob.Trace == nil {
		return nil
	}
	return ob.Trace
}

// Close stops the host CPU profile, then writes every output in a fixed
// order: the ring tail, the Chrome trace, the metrics dump, the profile
// report, the folded stacks.
func (ob *Observer) Close(w io.Writer) error {
	if ob.cpu != nil {
		pprof.StopCPUProfile()
		if err := ob.cpu.Close(); err != nil {
			return err
		}
	}
	if ob.ring != nil {
		fmt.Fprintf(w, "\nlast %d of %d kernel events:\n%s", len(ob.ring.Events()), ob.ring.Total(), ob.ring)
	}
	if ob.chrome != nil {
		err := ob.chrome.Close()
		if ob.out.TraceOut == "-" {
			defer os.Remove(ob.file.Name())
			if err == nil {
				_, err = ob.file.Seek(0, io.SeekStart)
			}
			if err == nil {
				_, err = io.Copy(w, ob.file)
			}
		} else if ob.TraceLine != "" {
			fmt.Fprintf(w, ob.TraceLine, ob.out.TraceOut, ob.events)
		}
		if cerr := ob.file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if ob.pm != nil {
		if err := WriteOut(w, ob.out.Metrics, []byte(ob.pm.Dump())); err != nil {
			return err
		}
	}
	if ob.out.Profile > 0 {
		fmt.Fprintf(w, "\ncycle profile (top %d):\n%s", ob.out.Profile, ob.Profiler.Report(ob.out.Profile))
	}
	if ob.out.Folded != "" {
		return WriteOut(w, ob.out.Folded, []byte(ob.Profiler.Folded()))
	}
	return nil
}

// WriteOut writes data to path, with "-" meaning w.
func WriteOut(w io.Writer, path string, data []byte) error {
	if path == "-" {
		_, err := w.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

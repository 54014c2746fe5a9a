package mcheck

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
)

// scratchBuilder is a switch-walker model with its from-scratch
// constructor, the reference its lazy instances are compared against.
type scratchBuilder struct{ Model }

// build is New without the walker cache: a lazy child is materialized
// at once, which builds it from scratch.
func (m scratchBuilder) build(ds []Decision, opt Options) (Instance, error) {
	in, err := m.New(ds, opt)
	if c, ok := in.(*switchChild); ok {
		return c.materialize(), nil
	}
	return in, err
}

func switchModel(t testing.TB, name string, over map[string]string) scratchBuilder {
	t.Helper()
	m, err := BuildModel(name, over)
	if err != nil {
		t.Fatal(err)
	}
	if m.Primary() != ActSwitch {
		t.Fatalf("%s is not a switch-walker model", name)
	}
	return scratchBuilder{m}
}

// pauseAgrees checks one schedule the way Exhaustive uses it: the lazy
// instance's StateHash, Violations and Cursor after RunTo(last.At), then
// its Violations after RunToEnd, must equal a from-scratch build's. It
// reports whether the lazy instance answered from its walker.
func pauseAgrees(t testing.TB, m scratchBuilder, ds []Decision) (fromWalker bool) {
	t.Helper()
	lazy, err := m.New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.build(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := ds[len(ds)-1].At
	if a, b := lazy.RunTo(at), full.RunTo(at); a != b {
		t.Errorf("%v: RunTo done %v, from scratch %v", ds, a, b)
	}
	pausedAgrees(t, fmt.Sprint(ds), lazy, full)
	sc, _ := lazy.(*switchChild)
	fromWalker = sc != nil && sc.full == nil
	lazy.RunToEnd()
	full.RunToEnd()
	if a, b := lazy.Violations(), full.Violations(); !slices.Equal(a, b) {
		t.Errorf("%v: violations after RunToEnd %v, from scratch %v", ds, a, b)
	}
	return fromWalker
}

// pausedAgrees compares an instance with its reference build (from
// scratch, or single-stepped) at the same pause; what names the
// schedule and the pause.
func pausedAgrees(t testing.TB, what string, in, ref Instance) {
	t.Helper()
	if a, b := in.Cursor(), ref.Cursor(); a != b {
		t.Errorf("%s: cursor %d, reference %d", what, a, b)
	}
	ha, oka := in.StateHash()
	hb, okb := ref.StateHash()
	if ha != hb || oka != okb {
		t.Errorf("%s: state hash differs from the reference", what)
	}
	if a, b := in.Violations(), ref.Violations(); !slices.Equal(a, b) {
		t.Errorf("%s: violations %v, reference %v", what, a, b)
	}
}

// diffModel pairs every instance an explorer builds with a from-scratch
// build of the same schedule and compares each answer the explorer
// reads. Before the next schedule is built, the previous pair is run to
// the end and its violations compared too — pruned children included.
type diffModel struct {
	scratchBuilder
	t          *testing.T
	prev       *diffInstance
	fromWalker int // children whose state hash came from a walker
}

type diffInstance struct {
	d          *diffModel
	ds         []Decision
	lazy, full Instance
	ended      bool
}

func (d *diffModel) New(ds []Decision, opt Options) (Instance, error) {
	d.finish()
	lazy, err := d.scratchBuilder.New(ds, opt)
	if err != nil {
		return nil, err
	}
	full, err := d.build(ds, opt)
	if err != nil {
		return nil, err
	}
	d.prev = &diffInstance{d: d, ds: ds, lazy: lazy, full: full}
	return d.prev, nil
}

func (d *diffModel) finish() {
	if d.prev != nil && !d.prev.ended {
		d.prev.RunToEnd()
	}
}

func (in *diffInstance) RunTo(at uint64) bool {
	a, b := in.lazy.RunTo(at), in.full.RunTo(at)
	if a != b {
		in.d.t.Errorf("%v: RunTo(%d) done %v, from scratch %v", in.ds, at, a, b)
	}
	return a
}

func (in *diffInstance) RunToEnd() {
	in.ended = true
	in.lazy.RunToEnd()
	in.full.RunToEnd()
	in.Violations()
}

func (in *diffInstance) Cursor() uint64 {
	a, b := in.lazy.Cursor(), in.full.Cursor()
	if a != b {
		in.d.t.Errorf("%v: cursor %d, from scratch %d", in.ds, a, b)
	}
	return a
}

func (in *diffInstance) StateHash() ([32]byte, bool) {
	ha, oka := in.lazy.StateHash()
	hb, okb := in.full.StateHash()
	if ha != hb || oka != okb {
		in.d.t.Errorf("%v: state hash differs from scratch", in.ds)
	}
	if sc, ok := in.lazy.(*switchChild); ok && sc.full == nil {
		in.d.fromWalker++
	}
	return ha, oka
}

func (in *diffInstance) Violations() []Violation {
	a, b := in.lazy.Violations(), in.full.Violations()
	if !slices.Equal(a, b) {
		in.d.t.Errorf("%v: violations %v, from scratch %v", in.ds, a, b)
	}
	return a
}

// Every child of these walks, lazy against from-scratch: hash, cursor
// and violations at the pause, and violations at the end of the run.
// The walks are the ones small enough to replay every child twice; the
// report counts must still match the suite's golden rows where the walk
// is a suite entry.
func TestSwitchWalkerMatchesScratch(t *testing.T) {
	for _, tc := range []struct {
		model     string
		over      map[string]string
		k         int
		schedules int // 0: not pinned
	}{
		{"smp-counter", map[string]string{"lock": "ras-only"}, 2, 276},
		{"smp-counter", map[string]string{"lock": "llsc"}, 1, 0},
		{"smp-counter", map[string]string{"lock": "hybrid"}, 1, 0},
		{"qlock-queue", map[string]string{"variant": "mcs"}, 1, 262},
	} {
		t.Run(tc.model+"{"+paramString(tc.over)+"}", func(t *testing.T) {
			d := &diffModel{scratchBuilder: switchModel(t, tc.model, tc.over), t: t}
			rep, err := (&Explorer{Model: d, MaxDecisions: tc.k}).Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			d.finish()
			if tc.schedules != 0 && rep.Schedules != tc.schedules {
				t.Errorf("walked %d schedules, want %d", rep.Schedules, tc.schedules)
			}
			if d.fromWalker == 0 {
				t.Errorf("no child was answered from a walker: %v", rep)
			}
			t.Logf("%v; %d children hashed from a walker", rep, d.fromWalker)
		})
	}
}

// Hazards of the walker cache: each case is a call order Exhaustive
// never makes, which must still give the from-scratch answers.
func TestSwitchWalkerHazards(t *testing.T) {
	sw := func(ats ...uint64) []Decision {
		ds := make([]Decision, len(ats))
		for i, at := range ats {
			ds[i] = Decision{At: at, Act: ActSwitch}
		}
		return ds
	}

	t.Run("out-of-order", func(t *testing.T) {
		// A lower ordinal after a higher one on the same prefix: the
		// walker has passed it, so a fresh walker must serve it.
		m := switchModel(t, "smp-counter", map[string]string{"lock": "llsc"})
		for _, ds := range [][]Decision{sw(5, 40), sw(5, 12), sw(30), sw(9)} {
			if !pauseAgrees(t, m, ds) {
				t.Errorf("%v: replayed instead of pausing a walker", ds)
			}
		}
	})

	t.Run("two-live", func(t *testing.T) {
		// The second child advances the shared walker before the first
		// is read: the first must notice and replay.
		m := switchModel(t, "smp-counter", map[string]string{"lock": "hybrid"})
		ds1, ds2 := sw(7), sw(19)
		a, _ := m.New(ds1, Options{})
		b, _ := m.New(ds2, Options{})
		a.RunTo(7)
		b.RunTo(19)
		fa, _ := m.build(ds1, Options{})
		fa.RunTo(7)
		pausedAgrees(t, fmt.Sprint(ds1), a, fa)
		fb, _ := m.build(ds2, Options{})
		fb.RunTo(19)
		pausedAgrees(t, fmt.Sprint(ds2), b, fb)
	})

	t.Run("run-to-end-only", func(t *testing.T) {
		// RunOnce and Shrink never pause: RunToEnd alone must replay the
		// whole schedule, end-state checks included.
		m := switchModel(t, "smp-counter", map[string]string{"lock": "ras-only"})
		cex := sw(7, 20) // the suite's minimized counterexample
		vio, err := RunOnce(m, cex, Options{})
		if err != nil {
			t.Fatal(err)
		}
		full, _ := m.build(cex, Options{})
		full.RunToEnd()
		if len(vio) == 0 || !slices.Equal(vio, full.Violations()) {
			t.Errorf("RunOnce violations %v, from scratch %v", vio, full.Violations())
		}
	})

	t.Run("tracer", func(t *testing.T) {
		// With a tracer the instance is built in full, so a replayed
		// counterexample traces every event of its run.
		m := switchModel(t, "smp-counter", map[string]string{"lock": "ras-only"})
		ds := sw(7, 20)
		lazyBus, fullBus := obs.NewRing(16), obs.NewRing(16)
		in, err := m.New(ds, Options{Tracer: lazyBus})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := in.(*switchChild); ok {
			t.Errorf("traced instance is lazy")
		}
		in.RunTo(20)
		in.RunToEnd()
		full, _ := m.build(ds, Options{Tracer: fullBus})
		full.RunTo(20)
		full.RunToEnd()
		if lazyBus.Total() == 0 || lazyBus.Total() != fullBus.Total() {
			t.Errorf("traced %d events, from scratch %d", lazyBus.Total(), fullBus.Total())
		}
	})

	t.Run("prefix-violation", func(t *testing.T) {
		// The prefix run breaks mutual exclusion before the child's own
		// switch; the child, paused on that walker, must report it.
		m := switchModel(t, "smp-counter", map[string]string{"lock": "ras-only"})
		prefix := sw(7, 20)
		probe, _ := m.build(prefix, Options{})
		probe.RunToEnd()
		at := probe.Cursor()
		ds := append(prefix, Decision{At: at, Act: ActSwitch})
		in, _ := m.New(ds, Options{})
		in.RunTo(at)
		if len(in.Violations()) == 0 {
			t.Errorf("%v: paused child lost its prefix's violation", ds)
		}
		if !pauseAgrees(t, m, ds) {
			t.Errorf("%v: replayed instead of pausing a walker", ds)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Two walks share one model's walkers from two goroutines; each
		// must report what a walk on a model of its own reports.
		over := map[string]string{"lock": "llsc"}
		want, err := (&Explorer{Model: switchModel(t, "smp-counter", over), MaxDecisions: 1}).Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		m := switchModel(t, "smp-counter", over)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := (&Explorer{Model: m, MaxDecisions: 1}).Exhaustive()
				if err != nil {
					t.Error(err)
					return
				}
				if rep.String() != want.String() {
					t.Errorf("shared-model walk %v, own-model walk %v", rep, want)
				}
			}()
		}
		wg.Wait()
	})
}

// FuzzSwitchWalker compares lazy switch children against from-scratch
// builds for arbitrary sorted switch schedules of up to three decisions
// on every smp-counter lock. The children of each input are built in
// increasing then decreasing prefix order, so walkers are reused, passed
// and rebuilt; ordinals past the end of a run exercise the replay path.
func FuzzSwitchWalker(f *testing.F) {
	f.Add(byte(0), []byte{6, 19})
	f.Add(byte(2), []byte{40, 2, 90})
	f.Add(byte(3), []byte{6, 19, 20})
	f.Add(byte(1), []byte{255})
	f.Add(byte(0), []byte{0})
	f.Add(byte(2), []byte{0, 9})
	locks := []string{"hybrid", "spinlock", "llsc", "ras-only"}
	f.Fuzz(func(t *testing.T, lock byte, raw []byte) {
		m := switchModel(t, "smp-counter", map[string]string{"lock": locks[int(lock)%len(locks)]})
		var ats []uint64
		for _, b := range raw {
			if len(ats) == 3 {
				break
			}
			// Runs are roughly 50 to 250 steps long; ordinal 0 never
			// fires, and a prefix holding it never reaches its successors.
			if at := uint64(b); !slices.Contains(ats, at) {
				ats = append(ats, at)
			}
		}
		if len(ats) == 0 {
			return
		}
		slices.Sort(ats)
		ds := make([]Decision, len(ats))
		for i, at := range ats {
			ds[i] = Decision{At: at, Act: ActSwitch}
		}
		for i := 1; i <= len(ds); i++ {
			pauseAgrees(t, m, ds[:i])
		}
		for i := len(ds); i >= 1; i-- {
			pauseAgrees(t, m, ds[:i])
		}
	})
}

// BenchmarkExhaustiveSMP walks one fixed suite-sized entry,
// smp-counter{lock=llsc} at K=2 (25,644 schedules), and reports the
// checker's throughput in schedules per second.
func BenchmarkExhaustiveSMP(b *testing.B) {
	benchExhaustive(b, "smp-counter", map[string]string{"lock": "llsc"}, 2)
}

// BenchmarkExhaustivePercpuServer times the suite's global-lock
// percpu-server entry at 2 CPUs, K=1: no state is pruned, so every one
// of its ~4,255 schedules replays its prefix and runs to its end, almost
// all of it in batches between decisions.
func BenchmarkExhaustivePercpuServer(b *testing.B) {
	benchExhaustive(b, "percpu-server", map[string]string{"variant": "mutex", "cpus": "2", "iters": "1"}, 1)
}

// benchExhaustive reports the schedules/s of an exhaustive walk.
func benchExhaustive(b *testing.B, model string, over map[string]string, k int) {
	m, err := BuildModel(model, over)
	if err != nil {
		b.Fatal(err)
	}
	schedules := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := (&Explorer{Model: m, MaxDecisions: k}).Exhaustive()
		if err != nil {
			b.Fatal(err)
		}
		schedules += rep.Schedules
	}
	b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
}

// singleStepped builds ds's instance of m stepping one scheduler step
// per call, the grain the batched instances must be indistinguishable
// from.
func singleStepped(t testing.TB, m Model, ds []Decision) Instance {
	t.Helper()
	in, err := m.New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := in.(*switchChild); ok {
		in = c.materialize()
	}
	switch in := in.(type) {
	case *interleaver:
		in.single = true
	case *vmachInstance:
		in.single = true
	default:
		t.Fatalf("%s builds a %T, which does not batch", m.Name(), in)
	}
	return in
}

// scheduleAgrees runs ds batched and single-stepped, pausing both at
// its last decision, and requires the same answers there and at the end.
func scheduleAgrees(t testing.TB, m Model, ds []Decision) {
	t.Helper()
	batched, err := m.New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := singleStepped(t, m, ds)
	at := ds[len(ds)-1].At
	if a, b := batched.RunTo(at), single.RunTo(at); a != b {
		t.Fatalf("%v: RunTo done %v, single-stepped %v", ds, a, b)
	}
	pausedAgrees(t, fmt.Sprint(ds, " paused"), batched, single)
	batched.RunToEnd()
	single.RunToEnd()
	pausedAgrees(t, fmt.Sprint(ds, " at the end"), batched, single)
}

// Kernel.StepUpTo batches stand for exactly the single steps they
// replace. On a percpu-preempt, a kill, a switch and a uniprocessor-
// preempt model, three walks must read the same cursor, state hash and
// violations batched as stepped one scheduler step per call:
//
//   - the undisturbed run, paused at ordinals 1, 3, 6, 10, ... (no
//     decision caps these batches, so a pause that overshoots shows);
//   - every K=1 child, paused at its decision and run to its end;
//   - K=2 children whose first decision fires inside the batches of the
//     walk to the second (every 16th first ordinal, gaps 1 and 5).
func TestInterleaverBatchesMatchSingleStep(t *testing.T) {
	for _, c := range []struct {
		model string
		over  map[string]string
	}{
		{"percpu-server", map[string]string{"variant": "mutex", "cpus": "2", "iters": "1"}},
		{"qlock-rec", map[string]string{"variant": "rmcs"}},
		{"smp-counter", map[string]string{"lock": "llsc"}},
		{"counter", map[string]string{"mech": "registered"}},
	} {
		t.Run(c.model, func(t *testing.T) {
			t.Parallel()
			m, err := BuildModel(c.model, c.over)
			if err != nil {
				t.Fatal(err)
			}
			root, err := m.New(nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := singleStepped(t, m, nil)
			for at, gap := uint64(1), uint64(2); ; at, gap = at+gap, gap+1 {
				if a, b := root.RunTo(at), ref.RunTo(at); a != b {
					t.Fatalf("undisturbed run: RunTo(%d) done %v, single-stepped %v", at, a, b)
				} else if a {
					break
				}
				if pausedAgrees(t, fmt.Sprintf("undisturbed run paused at %d", at), root, ref); t.Failed() {
					return
				}
			}
			root.RunToEnd()
			ref.RunToEnd()
			pausedAgrees(t, "undisturbed run at the end", root, ref)
			act := m.Primary()
			for at := uint64(1); at <= root.Cursor() && !t.Failed(); at++ {
				scheduleAgrees(t, m, []Decision{{At: at, Act: act}})
				if at%16 == 1 {
					for _, gap := range []uint64{1, 5} {
						scheduleAgrees(t, m, []Decision{{At: at, Act: act}, {At: at + gap, Act: act}})
					}
				}
			}
		})
	}
}

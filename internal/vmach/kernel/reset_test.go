package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
)

// A kernelScribble dirties one Kernel field of a kernel that has run
// part of a life, so that it differs from the field of a fresh kernel.
type kernelScribble func(k *Kernel)

// resetFields start over at a reset: each ends up as New builds it.
var resetFields = map[string]kernelScribble{
	// The config-derived fields differ because the reset takes another
	// config (resetConfig) than the dirty kernel was built under.
	"Kernel.Profile":   nil,
	"Kernel.Strategy":  nil,
	"Kernel.CheckAt":   nil,
	"Kernel.Quantum":   nil,
	"Kernel.CPUID":     nil,
	"Kernel.maxCycles": nil,
	"Kernel.faultAt":   nil,
	"Kernel.watchdog":  nil,
	// Part of a life sets these.
	"Kernel.steps":   nil,
	"Kernel.cur":     nil,
	"Kernel.sliceAt": nil,
	"Kernel.Stats":   nil,

	"Kernel.livelock":       func(k *Kernel) { k.livelock = &LivelockError{Thread: 1} },
	"Kernel.crashed":        func(k *Kernel) { k.crashed = &crashError{step: 9} },
	"Kernel.userHandler":    func(k *Kernel) { k.userHandler = 0x1000 },
	"Kernel.hasUserHandler": func(k *Kernel) { k.hasUserHandler = true },
	"Kernel.batching":       func(k *Kernel) { k.batching = true },
	"Kernel.blocked":        func(k *Kernel) { k.blocked = 1 },
	"Kernel.Console":        func(k *Kernel) { k.Console = append(k.Console, 7) },
	"Kernel.PeerAlive":      func(k *Kernel) { k.PeerAlive = func(int) bool { return true } },
	"Kernel.Tracer":         func(k *Kernel) { k.Tracer = &eventLog{} },
	"Kernel.Profiler":       func(k *Kernel) { k.Profiler = obs.NewCycleProfiler() },
}

// reusedFields keep their allocation at a reset, emptied: it must leave
// each with the contents New builds.
var reusedFields = map[string]kernelScribble{
	"Kernel.M":       nil, // reset in place by vmach.Machine.Reset
	"Kernel.threads": nil,
	"Kernel.runq":    nil,
	"Kernel.ras":     func(k *Kernel) { k.setRas(0, 0x200, 16) },
	"Kernel.waitq":   func(k *Kernel) { k.waitq[0x2000] = []*Thread{k.threads[1]} },
}

// resetConfig differs from persistConfig in every field a kernel takes
// from its config.
func resetConfig(mem *vmach.Memory) Config {
	return Config{Profile: arch.I860(), Strategy: NewMultiRegistration(), CheckAt: CheckAtSuspend,
		Quantum: 777, MaxCycles: 1 << 33, Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort},
		Memory: mem, CPUID: 3}
}

// kernelField reads field i of *k, exported or not.
func kernelField(k *Kernel, i int) any {
	f := reflect.ValueOf(k).Elem().Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// sameField reports whether field i holds the same state in a and b. A
// reused field is compared by contents, so an emptied slice or map
// matches a nil one, and the machine by its capture and its wiring.
func sameField(a, b *Kernel, i int) bool {
	name := "Kernel." + reflect.TypeOf(Kernel{}).Field(i).Name
	if name == "Kernel.M" {
		ia, ib := &vmach.MachineImage{Mem: &vmach.MemoryImage{}}, &vmach.MachineImage{Mem: &vmach.MemoryImage{}}
		a.M.CaptureInto(ia)
		b.M.CaptureInto(ib)
		return a.M.Mem == b.M.Mem && a.M.Profile == b.M.Profile && a.M.Coherence == b.M.Coherence &&
			reflect.DeepEqual(ia, ib)
	}
	x, y := kernelField(a, i), kernelField(b, i)
	if _, ok := reusedFields[name]; ok && reflect.ValueOf(x).Len() == 0 && reflect.ValueOf(y).Len() == 0 {
		return true
	}
	return reflect.DeepEqual(x, y)
}

// TestResetMatchesNew guards the one construction path: every Kernel
// field is either reset or reused, and a reset of a kernel dirty in
// every field, under a config that differs in every field, leaves each
// field as New under that config builds it. A new field in neither list
// fails here instead of leaking one life's state into the next.
func TestResetMatchesNew(t *testing.T) {
	typ := reflect.TypeOf(Kernel{})
	for i := 0; i < typ.NumField(); i++ {
		name := "Kernel." + typ.Field(i).Name
		_, reset := resetFields[name]
		_, reused := reusedFields[name]
		if reset == reused {
			t.Errorf("field %s is in both or neither of the reset and reused lists; want exactly 1", name)
		}
	}

	prog := guest.Assemble(guest.PersistentCounterProgram(2, 5))
	mem := persistMem()
	dirty := Boot(persistConfig(mem, chaos.OneShot{Point: chaos.PointStep, N: 1 << 20}), prog, guest.StackTop(0))
	if fin, err := dirty.RunSteps(400); fin {
		t.Fatalf("the dirtying run finished early: %v", err)
	}
	for _, scribbles := range []map[string]kernelScribble{resetFields, reusedFields} {
		for _, scribble := range scribbles {
			if scribble != nil {
				scribble(dirty)
			}
		}
	}
	dirty.M.Stats.Flushes++ // so the machine is dirty on the wb-free R3000 too

	cfg := resetConfig(mem)
	fresh := New(cfg)
	fresh.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	for i := 0; i < typ.NumField(); i++ {
		if sameField(dirty, fresh, i) {
			t.Errorf("field Kernel.%s of the dirty kernel already matches a fresh one: the check of its reset is vacuous", typ.Field(i).Name)
		}
	}

	dirty.reset(cfg)
	dirty.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	for i := 0; i < typ.NumField(); i++ {
		if !sameField(dirty, fresh, i) {
			t.Errorf("after a reset, field Kernel.%s = %#v, want %#v as New builds it",
				typ.Field(i).Name, kernelField(dirty, i), kernelField(fresh, i))
		}
	}
}

// lifeResult is everything one life of a persistent machine leaves
// behind: the run's results, the capture right after Boot, the state key
// at the end. Stores holds every counter and lock store the machine's one
// memory watcher saw in it.
type lifeResult struct {
	runResult
	Booted    []byte // Capture().Encode() right after Boot
	BootSteps uint64
	Key       []byte // AppendStateKey at the end of the life
}

// runLives runs prog's lives, one per injector, booting each with boot.
// Each life installs its tracer after Boot, as
// the contract asks; the memory watchers are installed once, at the cold
// boot, and read whichever kernel is running.
func runLives(prog *asm.Program, boot func(chaos.Injector) *Kernel, faults []chaos.Injector) ([]lifeResult, []*Kernel) {
	lives := make([]lifeResult, len(faults))
	kernels := make([]*Kernel, len(faults))
	var k *Kernel
	var r *lifeResult
	for i, inj := range faults {
		k, r = boot(inj), &lives[i]
		kernels[i] = k
		if i == 0 {
			for _, sym := range []string{"counter", "lock"} {
				k.M.Mem.Watch(prog.MustSymbol(sym), func(old, new isa.Word) {
					r.Stores = append(r.Stores, storeSeen{old, new, k.Steps(), k.CurrentID()})
				})
			}
		}
		r.Booted, r.BootSteps = k.Capture().Encode(), k.Steps()
		k.Tracer = &r.Events
		r.finish(k, k.Run())
		r.Key = k.AppendStateKey(nil)
	}
	return lives, kernels
}

// freshBoot is the reference a Lives must match: every life a new kernel
// over the surviving memory, cold the first time.
func freshBoot(prog *asm.Program) func(chaos.Injector) *Kernel {
	var mem *vmach.Memory
	return func(faults chaos.Injector) *Kernel {
		cfg := PersistConfig(0)
		cfg.Faults = faults
		if mem == nil {
			mem = persistMem()
			cfg.Memory = mem
			return Boot(cfg, prog, guest.StackTop(0))
		}
		cfg.Memory = mem
		k := New(cfg)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		return k
	}
}

// crashAt is a life that crashes with kind at step n.
func crashAt(kind chaos.CrashKind, n uint64) chaos.Injector {
	return chaos.OneShot{Point: chaos.PointStep, N: n, Action: chaos.Action{Crash: kind}}
}

// assertResetMatchesFresh runs the same lives on a Lives machine, whose
// warm boots reset one kernel, and on the fresh reference, and requires
// identical results life by life, which it returns.
func assertResetMatchesFresh(t testing.TB, prog *asm.Program, faults []chaos.Injector) []lifeResult {
	t.Helper()
	l := &Lives{Prog: prog, StackTop: guest.StackTop(0), Config: PersistConfig(0)}
	got, kernels := runLives(prog, l.Boot, faults)
	want, _ := runLives(prog, freshBoot(prog), faults)
	for i := range faults {
		if kernels[i] != kernels[0] {
			t.Fatalf("life %d booted a new kernel; a Lives resets its one kernel", i)
		}
		if err := diffLife(got[i], want[i]); err != nil {
			t.Fatalf("life %d of %v: a reset kernel differs from a fresh one: %v", i, faults, err)
		}
	}
	return got
}

// diffLife names the first thing two lives disagree on.
func diffLife(a, b lifeResult) error {
	switch {
	case !bytes.Equal(a.Booted, b.Booted):
		return errors.New("the capture right after Boot")
	case a.BootSteps != b.BootSteps:
		return fmt.Errorf("Steps after Boot %d, want %d", a.BootSteps, b.BootSteps)
	case a.Err != b.Err:
		return fmt.Errorf("run error %q, want %q", a.Err, b.Err)
	case a.Stats != b.Stats:
		return fmt.Errorf("stats %+v, want %+v", a.Stats, b.Stats)
	case a.MStats != b.MStats:
		return fmt.Errorf("machine stats %+v, want %+v", a.MStats, b.MStats)
	case !bytes.Equal(a.Image, b.Image):
		return errors.New("the capture at the end of the life")
	case !bytes.Equal(a.Key, b.Key):
		return errors.New("the state key at the end of the life")
	case !reflect.DeepEqual(a.Events.deaths(), b.Events.deaths()):
		return fmt.Errorf("deaths %v, want %v", a.Events.deaths(), b.Events.deaths())
	case !reflect.DeepEqual(a.Events, b.Events):
		return fmt.Errorf("%d trace events, want %d (or they differ)", len(a.Events), len(b.Events))
	case !reflect.DeepEqual(a.Stores, b.Stores):
		return fmt.Errorf("watcher saw %v, want %v", a.Stores, b.Stores)
	case !reflect.DeepEqual(a, b):
		return errors.New("the rest of the life's results")
	}
	return nil
}

var crashKinds = []chaos.CrashKind{chaos.CrashVolatile, chaos.CrashTorn, chaos.CrashClean}

// livesSpan is a clean life's step count of the persistent counter.
func livesSpan(t testing.TB, prog *asm.Program) uint64 {
	t.Helper()
	span, err := (&Lives{Prog: prog, StackTop: guest.StackTop(0), Config: PersistConfig(0)}).Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	return span
}

// TestLivesResetMatchesFresh sweeps the first crash's ordinal and kind
// across a clean life's span; a second crash of the next kind lands in
// the warm life after it (often in recovery), and a clean life
// finishes. Every life of a Lives machine, whose warm boots reset its
// one kernel, must leave what a kernel built fresh over the same
// surviving memory leaves.
func TestLivesResetMatchesFresh(t *testing.T) {
	prog := guest.Assemble(guest.PersistentCounterProgram(2, 5))
	span := livesSpan(t, prog)
	const points = 8
	for ki, kind := range crashKinds {
		next := crashKinds[(ki+1)%len(crashKinds)]
		for i := uint64(0); i < points; i++ {
			first := 1 + span*(2*i+1)/(2*points)
			second := 1 + span*(i+1)/(3*points)
			lives := assertResetMatchesFresh(t, prog, []chaos.Injector{crashAt(kind, first), crashAt(next, second), nil})
			if want := fmt.Sprintf("%v at step %d", ErrMachineCrash, first); lives[0].Err != want {
				t.Fatalf("first life ended %q, want %q: the sweep missed the span", lives[0].Err, want)
			}
		}
	}
}

// FuzzLivesWarmBoot runs random crash ordinals and kinds over the
// persistent counter, a Lives machine against the fresh reference. Each
// of up to three lives crashes with kind bits (two per life: volatile,
// torn, clean, or a clean life) at its ordinal, which may lie past the
// life's end; a clean life finishes.
func FuzzLivesWarmBoot(f *testing.F) {
	prog := guest.Assemble(guest.PersistentCounterProgram(2, 5))
	span := livesSpan(f, prog)
	f.Add(uint8(0b00_01_00), uint16(100), uint16(40), uint16(7))
	f.Add(uint8(0b10_10_10), uint16(5), uint16(900), uint16(300))
	f.Add(uint8(0b11_00_01), uint16(999), uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, kinds uint8, at1, at2, at3 uint16) {
		var faults []chaos.Injector
		for i, at := range []uint16{at1, at2, at3} {
			if k := kinds >> (2 * i) & 3; k < 3 {
				faults = append(faults, crashAt(crashKinds[k], 1+uint64(at)%(span+span/4)))
			} else {
				faults = append(faults, nil)
			}
		}
		assertResetMatchesFresh(t, prog, append(faults, nil))
	})
}

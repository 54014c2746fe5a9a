package kernel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach"
)

// A keyMutation changes exactly one field of a snapshot, and the
// restoring config only where Restore demands a match.
type keyMutation func(s *Snapshot, cfg *Config)

// keyedFields are the behavioral fields of a capture: changing any one
// of them must change AppendStateKey. Thread fields are changed on
// thread 1, the faulted one, so its fault address is live state.
var keyedFields = map[string]keyMutation{
	"Snapshot.Strategy": func(s *Snapshot, cfg *Config) {
		s.Strategy, cfg.Strategy = "registration", &Registration{}
	},
	"Snapshot.Quantum":        func(s *Snapshot, _ *Config) { s.Quantum++ },
	"Snapshot.CurID":          func(s *Snapshot, _ *Config) { s.CurID = -1 },
	"Snapshot.UserHandler":    func(s *Snapshot, _ *Config) { s.UserHandler += 4 },
	"Snapshot.HasUserHandler": func(s *Snapshot, _ *Config) { s.HasUserHandler = !s.HasUserHandler },
	"Snapshot.Console":        func(s *Snapshot, _ *Config) { s.Console = append(s.Console, 9) },
	"Snapshot.Threads": func(s *Snapshot, _ *Config) {
		t := *s.Threads[0]
		s.Threads = append(s.Threads, &t)
	},
	"Snapshot.RunQ": func(s *Snapshot, _ *Config) { s.RunQ = nil },
	"Snapshot.Ras": func(s *Snapshot, _ *Config) {
		s.Ras = append(s.Ras, RasImage{AS: 1, Start: 0x400, Length: 16})
	},
	"Snapshot.MultiRanges": func(s *Snapshot, _ *Config) {
		s.MultiRanges = append(s.MultiRanges, RangeImage{Start: 0x400, Length: 16})
	},
	"Snapshot.Waits": func(s *Snapshot, _ *Config) { s.Waits = nil },

	"ThreadImage.AS":         func(s *Snapshot, _ *Config) { s.Threads[1].AS++ },
	"ThreadImage.State":      func(s *Snapshot, _ *Config) { s.Threads[1].State = StateKilled },
	"ThreadImage.ExitCode":   func(s *Snapshot, _ *Config) { s.Threads[1].ExitCode++ },
	"ThreadImage.FaultKind":  func(s *Snapshot, _ *Config) { s.Threads[1].FaultKind = int32(vmach.FaultIllegal) },
	"ThreadImage.FaultAddr":  func(s *Snapshot, _ *Config) { s.Threads[1].FaultAddr += 4 },
	"ThreadImage.NeedsCheck": func(s *Snapshot, _ *Config) { s.Threads[1].NeedsCheck = !s.Threads[1].NeedsCheck },

	"Context.Regs":       func(s *Snapshot, _ *Config) { s.Threads[1].Ctx.Regs[isa.RegT0]++ },
	"Context.PC":         func(s *Snapshot, _ *Config) { s.Threads[1].Ctx.PC += 4 },
	"Context.LockActive": func(s *Snapshot, _ *Config) { s.Threads[1].Ctx.LockActive = !s.Threads[1].Ctx.LockActive },
	"Context.LockPC":     func(s *Snapshot, _ *Config) { s.Threads[1].Ctx.LockPC += 4 },
	"Context.LockBudget": func(s *Snapshot, _ *Config) { s.Threads[1].Ctx.LockBudget++ },

	"RasImage.AS":       func(s *Snapshot, _ *Config) { s.Ras[0].AS++ },
	"RasImage.Start":    func(s *Snapshot, _ *Config) { s.Ras[0].Start += 4 },
	"RasImage.Length":   func(s *Snapshot, _ *Config) { s.Ras[0].Length += 4 },
	"RangeImage.Start":  func(s *Snapshot, _ *Config) { s.MultiRanges[0].Start += 4 },
	"RangeImage.Length": func(s *Snapshot, _ *Config) { s.MultiRanges[0].Length += 4 },
	"WaitImage.Addr":    func(s *Snapshot, _ *Config) { s.Waits[0].Addr += 4 },
	"WaitImage.TIDs":    func(s *Snapshot, _ *Config) { s.Waits[0].TIDs = nil },

	"MachineImage.ProfileName": func(s *Snapshot, cfg *Config) {
		cfg.Profile = arch.I860()
		s.Machine.ProfileName = cfg.Profile.Name
	},
	"MachineImage.WB":       func(s *Snapshot, _ *Config) { s.Machine.WB = append(s.Machine.WB, 7) },
	"MachineImage.ResValid": func(s *Snapshot, _ *Config) { s.Machine.ResValid = !s.Machine.ResValid },
	"MachineImage.ResAddr":  func(s *Snapshot, _ *Config) { s.Machine.ResAddr += 4 },
}

// accountingFields can influence no future transition under the model
// checker's run conditions: changing any one of them must leave
// AppendStateKey unchanged.
var accountingFields = map[string]keyMutation{
	"Snapshot.SliceAt": func(s *Snapshot, _ *Config) { s.SliceAt += 1000 },
	"Snapshot.Steps":   func(s *Snapshot, _ *Config) { s.Steps += 1000 },
	"Snapshot.Stats":   func(s *Snapshot, _ *Config) { bumpCounters(&s.Stats) },

	"ThreadImage.Suspensions": func(s *Snapshot, _ *Config) { s.Threads[1].Suspensions++ },
	"ThreadImage.Restarts":    func(s *Snapshot, _ *Config) { s.Threads[1].Restarts++ },
	"ThreadImage.SeqPC":       func(s *Snapshot, _ *Config) { s.Threads[1].SeqPC += 4 },
	"ThreadImage.SeqRestarts": func(s *Snapshot, _ *Config) { s.Threads[1].SeqRestarts++ },
	"ThreadImage.Extended":    func(s *Snapshot, _ *Config) { s.Threads[1].Extended = !s.Threads[1].Extended },
	"ThreadImage.BoostSlice":  func(s *Snapshot, _ *Config) { s.Threads[1].BoostSlice = !s.Threads[1].BoostSlice },

	"MachineImage.Stats": func(s *Snapshot, _ *Config) { bumpCounters(&s.Machine.Stats) },
}

// structuralFields hold no state of their own: they are classified
// field by field through their types, or hashed beside the key.
var structuralFields = map[string]string{
	"Snapshot.Machine": "classified as MachineImage",
	"ThreadImage.Ctx":  "classified as Context",
	"MachineImage.Mem": "hashed through vmach.Memory.Digest",
}

// bumpCounters increments every counter of a Stats struct.
func bumpCounters(stats any) {
	v := reflect.ValueOf(stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(v.Field(i).Uint() + 1)
	}
}

// stateKeyBase is a capture with every keyed field populated, so that a
// change to any of them is a change to live state, and the config
// factory it restores under. Its three threads are running (0), queued
// (2) and waiting (1), so no thread is named twice.
func stateKeyBase(t *testing.T) (*Snapshot, func() Config) {
	t.Helper()
	cfg := func() Config { return Config{Strategy: NewMultiRegistration(), Quantum: 150} }
	k, prog := boot(t, cfg(), ckptProgram)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(1))
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(2))
	if fin, err := k.RunSteps(40); fin {
		t.Fatalf("run finished early: %v", err)
	}
	s := k.Capture()
	s.CurID = 0
	s.UserHandler, s.HasUserHandler = 0x1000, true
	s.Console = []isa.Word{7}
	s.RunQ = []int32{2}
	s.Ras = []RasImage{{AS: 0, Start: 0x200, Length: 16}}
	s.MultiRanges = nil // so the strategy can change
	s.Waits = []WaitImage{{Addr: 0x2000, TIDs: []int32{1}}}
	t1 := s.Threads[1]
	t1.State = StateFaulted
	t1.FaultKind, t1.FaultAddr = int32(vmach.FaultNotPresent), 0x5000
	s.Machine.WB = []uint64{5}
	s.Machine.ResValid, s.Machine.ResAddr = true, 0x44
	return s, cfg
}

// TestStateKeyFields guards the model checker's pruning: every field of
// every struct the state walks serve is either keyed (the key walk visits
// it) or accounting (the walk marks it so and the key skips it), and the
// classification is checked against the key itself. A new field in
// neither list fails here instead of silently dropping out of the key.
func TestStateKeyFields(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Snapshot{}), reflect.TypeOf(ThreadImage{}),
		reflect.TypeOf(RasImage{}), reflect.TypeOf(RangeImage{}), reflect.TypeOf(WaitImage{}),
		reflect.TypeOf(vmach.MachineImage{}), reflect.TypeOf(vmach.Context{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			_, keyed := keyedFields[name]
			_, acct := accountingFields[name]
			_, structural := structuralFields[name]
			n := 0
			for _, in := range []bool{keyed, acct, structural} {
				if in {
					n++
				}
			}
			if n != 1 {
				t.Errorf("field %s is in %d of the keyed, accounting and structural lists; want exactly 1", name, n)
			}
		}
	}

	base, newCfg := stateKeyBase(t)
	key := func(s *Snapshot, cfg Config) []byte {
		t.Helper()
		k, err := Restore(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		return k.AppendStateKey(nil)
	}
	baseKey := key(base, newCfg())
	if !bytes.Equal(baseKey, key(base, newCfg())) {
		t.Fatal("two restores of one capture append different keys")
	}
	deepCopy := func(s *Snapshot) *Snapshot {
		t.Helper()
		c, err := DecodeSnapshot(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The base has no multi-registration table, so that the strategy can
	// change; RangeImage fields are mutated in a copy that has one.
	ranged := deepCopy(base)
	ranged.MultiRanges = []RangeImage{{Start: 0x400, Length: 16}}
	rangedKey := key(ranged, newCfg())
	check := func(fields map[string]keyMutation, wantChange bool) {
		for name, mutate := range fields {
			ref, refKey := base, baseKey
			if strings.HasPrefix(name, "RangeImage.") {
				ref, refKey = ranged, rangedKey
			}
			s, cfg := deepCopy(ref), newCfg()
			mutate(s, &cfg)
			if reflect.DeepEqual(s, ref) {
				t.Errorf("%s: the mutation changed nothing", name)
				continue
			}
			if changed := !bytes.Equal(key(s, cfg), refKey); changed != wantChange {
				t.Errorf("%s: key changed = %v, want %v", name, changed, wantChange)
			}
		}
	}
	check(keyedFields, true)
	check(accountingFields, false)
}

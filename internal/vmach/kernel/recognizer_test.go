package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// The paper's safety requirement for designated sequences: "The kernel's
// comparison must recognize every interrupted sequence and reject any
// other similar looking sequence since mistakenly changing the PC in such
// a situation could cause code to malfunction" (§3.2).
//
// Property: against an instruction stream containing no landmark
// instruction, the recognizer never moves the PC, whatever the stream
// contains.
func TestQuickDesignatedNeverMovesPCWithoutLandmark(t *testing.T) {
	k := New(Config{Strategy: &Designated{}})
	const base = 0x4000
	f := func(words []uint32, idx8 uint8) bool {
		if len(words) == 0 {
			words = []uint32{0}
		}
		// Scrub any accidental landmarks out of the random stream.
		for i, w := range words {
			if isa.Decode(w).IsLandmark() {
				words[i] = 0 // nop
			}
			k.M.Mem.Poke(base+uint32(i*4), w)
		}
		// Pad the probe window (landmark offsets reach -1..+3).
		for i := -2; i < len(words)+4; i++ {
			addr := uint32(int(base) + i*4)
			if isa.Decode(k.M.Mem.Peek(addr)).IsLandmark() {
				k.M.Mem.Poke(addr, 0)
			}
		}
		pc := base + uint32(int(idx8)%len(words))*4
		th := &Thread{}
		th.Ctx.PC = pc
		res := k.Strategy.Check(k, th)
		return !res.Restarted && th.Ctx.PC == pc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: wherever a well-formed canonical sequence sits in memory, a
// suspension at interior offsets 1..4 is recognized and rolled back to the
// exact start, and at every other nearby PC the check is a no-op.
func TestQuickDesignatedRecognizesEverywhere(t *testing.T) {
	k := New(Config{Strategy: &Designated{}})
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		start := 0x8000 + uint32(rng.Intn(1024))*4
		// Random-ish surrounding code (ALU ops, no landmarks).
		for i := -4; i < 10; i++ {
			w := isa.Encode(isa.Addi(int(rng.Intn(30))+1, int(rng.Intn(30))+1, int32(rng.Intn(100))))
			k.M.Mem.Poke(uint32(int(start)+i*4), w)
		}
		seq := []isa.Word{
			isa.Encode(isa.Lw(isa.RegV0, isa.RegS1, 0)),
			isa.Encode(isa.Ori(isa.RegT0, isa.RegZero, 1)),
			isa.Encode(isa.Bne(isa.RegV0, isa.RegZero, 3)),
			isa.Encode(isa.Landmark()),
			isa.Encode(isa.Sw(isa.RegT0, isa.RegS1, 0)),
		}
		for i, w := range seq {
			k.M.Mem.Poke(start+uint32(i*4), w)
		}
		for off := -2; off <= 6; off++ {
			pc := uint32(int(start) + off*4)
			th := &Thread{}
			th.Ctx.PC = pc
			res := k.Strategy.Check(k, th)
			wantRestart := off >= 1 && off <= 4
			if res.Restarted != wantRestart {
				t.Fatalf("trial %d off %d: restarted=%v want %v", trial, off, res.Restarted, wantRestart)
			}
			if wantRestart && th.Ctx.PC != start {
				t.Fatalf("trial %d off %d: pc=%#x want %#x", trial, off, th.Ctx.PC, start)
			}
			if !wantRestart && th.Ctx.PC != pc {
				t.Fatalf("trial %d off %d: pc moved on reject", trial, off)
			}
		}
	}
}

// The registration strategies share the complementary property: a PC
// outside every registered range is never moved.
func TestQuickRegistrationNeverMovesOutsidePC(t *testing.T) {
	k := New(Config{Strategy: &Registration{}})
	k.setRas(0, 0x1000, 12)
	f := func(pc32 uint32) bool {
		pc := pc32 &^ 3
		inside := pc > 0x1000 && pc < 0x100C
		th := &Thread{}
		th.Ctx.PC = pc
		res := k.Strategy.Check(k, th)
		if inside {
			return res.Restarted && th.Ctx.PC == 0x1000
		}
		return !res.Restarted && th.Ctx.PC == pc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Robustness: executing arbitrary word soup must never panic the kernel —
// every outcome is a normal return (success, fault error, or budget).
func TestQuickRandomProgramsNeverPanic(t *testing.T) {
	f := func(words []uint32, quantum16 uint16) bool {
		k := New(Config{
			Strategy:  &Designated{},
			CheckAt:   CheckAtResume,
			Quantum:   uint64(quantum16)%500 + 20,
			MaxCycles: 200_000,
		})
		base := uint32(0x1000)
		for i, w := range words {
			k.M.Mem.Poke(base+uint32(i*4), w)
		}
		k.Spawn(base, 0x90FF0)
		_ = k.Run() // any error is acceptable; a panic fails the test
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

package vmach

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/isa"
)

// fuzzInst builds one instruction from four fuzz bytes. Destinations are
// t0-t3, so s0 (the text base) and s1 (the data base) survive as address
// registers; loads and stores through s0 read and rewrite the program's
// own text, and an offset byte of 0xF0 or more makes the access unaligned.
func fuzzInst(b [4]byte, n int) isa.Word {
	regs := [...]int{isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegS0, isa.RegS1, isa.RegZero}
	src := func(x byte) int { return regs[int(x)%len(regs)] }
	dst := func(x byte) int { return isa.RegT0 + int(x%4) }
	base := func(x byte) int { return [2]int{isa.RegS0, isa.RegS1}[x&1] }
	off := func(x byte) int32 {
		o := int32(x%64) * 4
		if x >= 0xF0 {
			o += int32(x & 3)
		}
		return o
	}
	var in isa.Inst
	switch b[0] % 10 {
	case 0:
		fns := [...]uint32{isa.FnADD, isa.FnSUB, isa.FnAND, isa.FnOR, isa.FnXOR, isa.FnNOR, isa.FnSLT, isa.FnSLTU}
		in = isa.R(fns[int(b[0]/10)%len(fns)], dst(b[1]), src(b[2]), src(b[3]))
	case 1:
		fns := [...]uint32{isa.FnSLL, isa.FnSRL, isa.FnSRA}
		in = isa.Shift(fns[int(b[0]/10)%len(fns)], dst(b[1]), src(b[2]), int(b[3]%32))
	case 2:
		ops := [...]uint32{isa.OpADDI, isa.OpSLTI, isa.OpSLTIU}
		in = isa.I(ops[int(b[0]/10)%len(ops)], dst(b[1]), src(b[2]), int32(int8(b[3])))
	case 3:
		ops := [...]uint32{isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpLUI}
		in = isa.U(ops[int(b[0]/10)%len(ops)], dst(b[1]), src(b[2]), uint32(b[3])<<int(b[0]%9))
	case 4:
		op := [2]uint32{isa.OpLW, isa.OpLL}[b[0]/10%2]
		in = isa.I(op, dst(b[1]), base(b[2]), off(b[3]))
	case 5:
		if b[0]/10%2 == 0 {
			in = isa.Sw(src(b[1]), base(b[2]), off(b[3]))
		} else {
			in = isa.Sc(dst(b[1]), base(b[2]), off(b[3]))
		}
	case 6:
		ops := [...]uint32{isa.OpTAS, isa.OpXCHG, isa.OpFAA}
		in = isa.I(ops[int(b[0]/10)%len(ops)], dst(b[1]), base(b[2]), off(b[3]))
	case 7:
		ops := [...]uint32{isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ}
		in = isa.I(ops[int(b[0]/10)%len(ops)], src(b[1]), src(b[2]), int32(int8(b[3]))%8)
	case 8:
		switch b[0] / 10 % 8 {
		case 0:
			in = isa.Jump(isa.OpJ, fetchText+4*uint32(int(b[1])%n))
		case 1:
			in = isa.Jump(isa.OpJAL, fetchText+4*uint32(int(b[1])%n))
		case 2:
			in = isa.Jr(src(b[1]))
		case 3:
			in = isa.Flush(base(b[2]), off(b[3]))
		case 4:
			in = isa.Fence()
		case 5:
			in = isa.Syscall()
		case 6:
			in = isa.Break()
		default:
			in = isa.Landmark()
		}
	default:
		return isa.Word(b[0]) | isa.Word(b[1])<<8 | isa.Word(b[2])<<16 | isa.Word(b[3])<<24
	}
	return isa.Encode(in)
}

// FuzzStepPredecoded runs a random text on two machines: one whose memory
// has the predecoded table installed, and a reference whose memory has no
// table and whose page caches are flushed before every step, so it fetches
// with isa.Decode and looks every page up afresh. Between steps both get
// the same random stores over the text, presence flips of the code and
// data pages, Capture/Restore of an earlier image, and volatile or torn
// crash reverts on a persistent memory. After every step the contexts,
// returned events, and machine images (stats, write buffer, reservation,
// memory) must be deep-equal.
func FuzzStepPredecoded(f *testing.F) {
	f.Add([]byte{
		5, 0, 0, 0, // sw t0, 0(s0): rewrites the first instruction
		2, 1, 6, 3, // addi t1, zero, 3
		4, 2, 1, 4, // lw t2, 16(s1)
		15, 1, 0, 4, // sc t1, 16(s0)
		26, 0, 0, 0, // faa t0, 0(s0)
		7, 1, 2, 0xFE, // beq t1, t2, -2
		8, 3, 0, 0, // j to word 3
	}, []byte{3, 0, 1, 5, 1, 0, 0, 9, 1, 9, 1, 2, 9, 2, 4, 9, 8, 2, 7, 4, 6, 5}, false)
	f.Add([]byte{
		38, 0, 1, 2, // flush 8(s1)
		14, 0, 1, 2, // ll t0, 8(s1)
		15, 1, 1, 2, // sc t1, 8(s1)
		5, 1, 1, 2, // sw t1, 8(s1)
		48, 0, 0, 0, // fence
		5, 1, 1, 0xF1, // sw t1, 197(s1): unaligned
		68, 0, 0, 0, // break
	}, []byte{3, 9, 9, 5, 9, 6, 7, 4, 2, 9, 6, 0, 2}, true)
	f.Add([]byte{
		9, 0xFF, 0xFF, 0xFF, // raw word 0xFFFFFF09
		28, 0, 0, 0, // jr t0
		33, 0, 4, 0x40, // lui t0, 0x40 << 3
	}, []byte{1, 4, 1, 3, 0, 0, 4, 2, 1, 1, 4}, true)

	prof := arch.SMP()
	f.Fuzz(func(t *testing.T, text, ops []byte, persist bool) {
		n := len(text) / 4
		if n == 0 || n > 64 {
			t.Skip()
		}
		words := make([]isa.Word, n)
		for i := range words {
			words[i] = fuzzInst([4]byte(text[4*i:]), n)
		}
		fast, ref := New(prof), New(prof)
		var fctx, rctx Context
		for _, m := range []*Machine{fast, ref} {
			m.Mem.LoadProgramWords(fetchText, words)
			m.Mem.Poke(fetchData, 1)
			if persist {
				m.Mem.EnablePersistence()
			}
		}
		fast.Mem.SetText(fetchText, isa.Predecode(words))
		for _, c := range []*Context{&fctx, &rctx} {
			c.PC = fetchText
			c.Regs[isa.RegS0] = fetchText
			c.Regs[isa.RegS1] = fetchData
		}

		var imgs [2]*MemoryImage
		codeIn, dataIn := true, true
		byteAt := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0xFF
		}
		steps := 32 + 8*len(ops)
		if steps > 2000 {
			steps = 2000
		}
		for s, oi := 0, 0; s < steps; s++ {
			op := byteAt(oi)
			oi++
			both := func(fn func(*Memory)) { fn(fast.Mem); fn(ref.Mem) }
			switch op % 16 {
			case 0, 8: // a store over the text
				at := fetchText + 4*uint32(int(byteAt(oi))%n)
				w := fuzzInst([4]byte{byteAt(oi + 1), byteAt(oi + 2), byteAt(oi + 3), byteAt(oi + 4)}, n)
				oi += 5
				if op%16 == 0 {
					both(func(m *Memory) { m.StoreWord(at, w) })
				} else {
					both(func(m *Memory) { m.Poke(at, w) })
				}
			case 1:
				codeIn = !codeIn
				both(func(m *Memory) { m.SetPresent(fetchText, codeIn) })
			case 2:
				dataIn = !dataIn
				both(func(m *Memory) { m.SetPresent(fetchData, dataIn) })
			case 3:
				imgs = [2]*MemoryImage{fast.Mem.Capture(), ref.Mem.Capture()}
			case 4:
				if imgs[0] != nil {
					fast.Mem.Restore(imgs[0])
					ref.Mem.Restore(imgs[1])
					codeIn, dataIn = fast.Mem.Present(fetchText), fast.Mem.Present(fetchData)
				}
			case 5:
				both(func(m *Memory) { m.Crash(chaos.CrashVolatile, 0) })
			case 6:
				h := uint64(byteAt(oi))
				oi++
				both(func(m *Memory) { m.Crash(chaos.CrashTorn, h) })
			}

			ref.Mem.flushPageCaches()
			fev, rev := fast.Step(&fctx), ref.Step(&rctx)
			if fctx != rctx {
				t.Fatalf("step %d: context %+v, reference %+v", s, fctx, rctx)
			}
			if !reflect.DeepEqual(fev, rev) {
				t.Fatalf("step %d: event %+v, reference %+v", s, fev, rev)
			}
			if fi, ri := fast.Capture(), ref.Capture(); !reflect.DeepEqual(fi, ri) {
				t.Fatalf("step %d: machine images differ:\n%+v\nreference\n%+v", s, fi, ri)
			}

			// Keep both runs inside the text, identically.
			pc := fctx.PC
			switch {
			case fev.Kind == EventFault && fev.Fault.Kind == FaultNotPresent:
				both(func(m *Memory) { m.SetPresent(fev.Fault.Addr, true) })
				codeIn, dataIn = fast.Mem.Present(fetchText), fast.Mem.Present(fetchData)
			case fev.Kind == EventFault:
				pc = pc&^3 + 4
			case fev.Kind == EventBreak:
				pc += 4
			}
			if pc < fetchText || pc >= fetchText+4*uint32(n) {
				pc = fetchText
			}
			fctx.PC, rctx.PC = pc, pc
		}
	})
}

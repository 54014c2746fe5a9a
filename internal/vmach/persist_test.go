package vmach

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/isa"
)

// Store → flush → fence walks a word across the tiers: volatile first,
// durable only after the fence.
func TestPersistenceTiers(t *testing.T) {
	m := NewMemory()
	m.Poke(0x1000, 7) // pre-persistence contents are durable by definition
	m.EnablePersistence()
	if err := m.StoreWord(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(0x1000); got != 42 {
		t.Fatalf("volatile tier = %d, want 42", got)
	}
	if got := m.NVPeek(0x1000); got != 7 {
		t.Fatalf("NVM tier = %d before flush, want 7", got)
	}
	if dirty, f := m.FlushLine(0x1000); f != nil || !dirty {
		t.Fatalf("FlushLine = (%v, %v), want (true, nil)", dirty, f)
	}
	if got := m.NVPeek(0x1000); got != 7 {
		t.Fatalf("NVM tier = %d after flush but before fence, want 7", got)
	}
	if n := m.Fence(); n != 1 {
		t.Fatalf("Fence persisted %d lines, want 1", n)
	}
	if got := m.NVPeek(0x1000); got != 42 {
		t.Fatalf("NVM tier = %d after fence, want 42", got)
	}
	if m.DirtyLines() != nil || m.PendingLines() != nil {
		t.Fatal("persistence buffer not empty after fence")
	}
	m.Crash(chaos.CrashVolatile, 0)
	if got := m.Peek(0x1000); got != 42 {
		t.Fatalf("word = %d after crash, want 42 (it was fenced)", got)
	}
}

// A store to a flushed-but-unfenced line cancels the outstanding
// write-back: the conservative model never persists a value the guest has
// already overwritten.
func TestStoreCancelsPendingWriteback(t *testing.T) {
	m := NewMemory()
	m.EnablePersistence()
	m.StoreWord(0x2000, 1)
	m.FlushLine(0x2000)
	m.StoreWord(0x2000, 2) // cancels the pending write-back
	if n := m.Fence(); n != 0 {
		t.Fatalf("Fence persisted %d lines, want 0 (write-back was cancelled)", n)
	}
	m.Crash(chaos.CrashVolatile, 0)
	if got := m.Peek(0x2000); got != 0 {
		t.Fatalf("word = %d after crash, want 0 (neither store was fenced)", got)
	}
}

// A crash reverts exactly the unfenced lines; fenced ones keep their
// volatile contents.
func TestVolatileCrashRevertsOnlyUnfenced(t *testing.T) {
	m := NewMemory()
	m.EnablePersistence()
	m.StoreWord(0x1000, 10) // line A: flushed and fenced
	m.StoreWord(0x1040, 20) // line B: left dirty
	m.FlushLine(0x1000)
	m.Fence()
	if !m.Crash(chaos.CrashVolatile, 0) {
		t.Fatal("persistent memory refused a volatile crash")
	}
	if a, b := m.Peek(0x1000), m.Peek(0x1040); a != 10 || b != 0 {
		t.Fatalf("after crash: A=%d B=%d, want A=10 B=0", a, b)
	}
}

// Flushing a clean (or never-touched) line is a no-op, and a fence with an
// empty write buffer persists nothing.
func TestFlushCleanLineAndEmptyFence(t *testing.T) {
	m := NewMemory()
	m.EnablePersistence()
	if dirty, f := m.FlushLine(0x5000); f != nil || dirty {
		t.Fatalf("flush of untouched line = (%v, %v), want (false, nil)", dirty, f)
	}
	if n := m.Fence(); n != 0 {
		t.Fatalf("empty fence persisted %d lines", n)
	}
}

// Flush respects page presence like any other memory reference.
func TestFlushNotPresentPageFaults(t *testing.T) {
	m := NewMemory()
	m.EnablePersistence()
	m.StoreWord(0x3000, 5)
	m.SetPresent(0x3000, false)
	_, f := m.FlushLine(0x3000)
	if f == nil || f.Kind != FaultNotPresent {
		t.Fatalf("flush of not-present page = %v, want FaultNotPresent", f)
	}
	if m.PageFaults != 1 {
		t.Fatalf("PageFaults = %d, want 1", m.PageFaults)
	}
	m.SetPresent(0x3000, true) // serviceable: present again, flush succeeds
	if dirty, f := m.FlushLine(0x3000); f != nil || !dirty {
		t.Fatalf("flush after page-in = (%v, %v), want (true, nil)", dirty, f)
	}
}

// Without EnablePersistence, flush and fence are hints on fully
// persistent RAM and a crash loses nothing: a volatile crash degrades.
func TestFlushIsHintWithoutPersistence(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x1000, 9)
	if dirty, f := m.FlushLine(0x1000); f != nil || dirty {
		t.Fatalf("flush on non-persistent memory = (%v, %v), want (false, nil)", dirty, f)
	}
	if n := m.Fence(); n != 0 {
		t.Fatalf("fence on non-persistent memory persisted %d lines", n)
	}
	if m.Crash(chaos.CrashVolatile, 0) || m.Peek(0x1000) != 9 {
		t.Fatal("non-persistent memory honoured a volatile crash or lost a committed store")
	}
}

// The interpreter: flush/fence execute, count, and charge the profile's
// persist costs — the drain paid per line actually persisted.
func TestMachineFlushFenceStats(t *testing.T) {
	prog, err := asm.Assemble(`
		li   t0, 0x3000
		li   t1, 1
		sw   t1, 0(t0)
		sw   t1, 64(t0)
		flush 0(t0)
		flush 64(t0)
		fence
		fence
		break
	`)
	if err != nil {
		t.Fatal(err)
	}
	p := arch.R3000()
	m := New(p)
	m.Mem.EnablePersistence()
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	ctx := &Context{PC: prog.TextBase}
	for i := 0; ; i++ {
		ev := m.Step(ctx)
		if ev.Kind == EventBreak {
			break
		}
		if ev.Kind != EventNone || i > 100 {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if m.Stats.Flushes != 2 || m.Stats.Fences != 2 {
		t.Fatalf("Flushes=%d Fences=%d, want 2/2", m.Stats.Flushes, m.Stats.Fences)
	}
	if m.Stats.LinesPersisted != 2 {
		t.Fatalf("LinesPersisted=%d, want 2 (second fence found an empty buffer)", m.Stats.LinesPersisted)
	}
	if want := 2 * uint64(p.PersistDrainCycles); m.Stats.PersistCycles != want {
		t.Fatalf("PersistCycles=%d, want %d", m.Stats.PersistCycles, want)
	}
	if m.Mem.NVPeek(0x3000) != 1 || m.Mem.NVPeek(0x3040) != 1 {
		t.Fatal("fenced lines did not reach NVM")
	}
}

// A machine-level flush of a not-present page raises a serviceable fault,
// exactly like a load or store would.
func TestMachineFlushFaultsOnNotPresentPage(t *testing.T) {
	prog, err := asm.Assemble(`
		li   t0, 0x3000
		flush 0(t0)
		break
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(arch.R3000())
	m.Mem.EnablePersistence()
	m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
	m.Mem.StoreWord(0x3000, 1)
	m.Mem.SetPresent(0x3000, false)
	ctx := &Context{PC: prog.TextBase}
	var ev Event
	for i := 0; i < 10; i++ {
		ev = m.Step(ctx)
		if ev.Kind != EventNone {
			break
		}
	}
	if ev.Kind != EventFault || ev.Fault.Kind != FaultNotPresent || ev.Fault.Addr != 0x3000 {
		t.Fatalf("event = %+v, want not-present fault at 0x3000", ev)
	}
	m.Mem.SetPresent(0x3000, true) // service the fault and retry
	for i := 0; ; i++ {
		ev = m.Step(ctx)
		if ev.Kind == EventBreak {
			break
		}
		if ev.Kind != EventNone || i > 10 {
			t.Fatalf("after page-in: %+v", ev)
		}
	}
	if len(m.Mem.PendingLines()) != 1 {
		t.Fatal("retried flush did not initiate the write-back")
	}
}

// A torn crash persists a deterministic PREFIX of each pending line's
// words — never a subset with gaps — while dirty-but-unflushed lines
// revert entirely, exactly as in a volatile crash.
func TestTornCrashPersistsLinePrefix(t *testing.T) {
	build := func() *Memory {
		m := NewMemory()
		m.EnablePersistence()
		for i := uint32(0); i < LineWords; i++ {
			m.StoreWord(0x1000+4*i, isa.Word(100+i))
		}
		m.StoreWord(0x2000, 55) // dirty, never flushed
		m.FlushLine(0x1000)
		return m
	}
	prefixLen := func(m *Memory) int {
		k := 0
		for ; k < LineWords; k++ {
			if m.Peek(0x1000+4*uint32(k)) != isa.Word(100+k) {
				break
			}
		}
		for i := k; i < LineWords; i++ {
			if got := m.Peek(0x1000 + 4*uint32(i)); got != 0 {
				t.Fatalf("word %d = %d after torn crash with prefix %d — not a prefix", i, got, k)
			}
		}
		return k
	}
	partial := false
	for h := uint64(0); h < 32; h++ {
		m := build()
		m.Crash(chaos.CrashTorn, h)
		k := prefixLen(m)
		if 0 < k && k < LineWords {
			partial = true
		}
		if got := m.Peek(0x2000); got != 0 {
			t.Fatalf("h=%d: unflushed line survived a torn crash (word=%d)", h, got)
		}
		if m.DirtyLines() != nil || m.PendingLines() != nil {
			t.Fatalf("h=%d: persistence buffer not empty after torn crash", h)
		}
		// Determinism: the same ordinal tears the same way.
		m2 := build()
		m2.Crash(chaos.CrashTorn, h)
		if prefixLen(m2) != k {
			t.Fatalf("h=%d: torn crash is not deterministic", h)
		}
		// What survived the crash is durable: a second crash changes nothing.
		m.Crash(chaos.CrashVolatile, 0)
		if prefixLen(m) != k {
			t.Fatalf("h=%d: torn survivors were not durable", h)
		}
	}
	if !partial {
		t.Fatal("no h in [0,32) produced a partial line — the fault never tears")
	}
}

// Snapshots carry the full persistence state: capture → restore → capture
// is a fixpoint, and a restored memory crashes identically.
func TestSnapshotRoundTripsPersistenceState(t *testing.T) {
	m := NewMemory()
	m.EnablePersistence()
	m.StoreWord(0x1000, 1) // dirty
	m.StoreWord(0x1040, 2) // dirty + pending
	m.FlushLine(0x1040)
	img := m.Capture()
	if !img.Persist || len(img.NVLines) != 2 || len(img.PendingLines) != 1 {
		t.Fatalf("capture: persist=%v nv=%d pending=%d", img.Persist, len(img.NVLines), len(img.PendingLines))
	}
	m2 := NewMemory()
	m2.Restore(img)
	if !reflect.DeepEqual(m2.Capture(), img) {
		t.Fatal("capture/restore/capture is not a fixpoint")
	}
	m2.Fence() // the restored pending write-back completes...
	if got := m2.NVPeek(0x1040); got != 2 {
		t.Fatalf("restored pending line fenced to %d, want 2", got)
	}
	m2.Crash(chaos.CrashVolatile, 0) // ...and the restored dirty line still reverts
	if a, b := m2.Peek(0x1000), m2.Peek(0x1040); a != 0 || b != 2 {
		t.Fatalf("after restore+fence+crash: %d/%d, want 0/2", a, b)
	}
}

// A program load that runs past the top of the address space wraps to
// address 0, as poking each word does, and patches the dirty lines on
// both sides of the wrap.
func TestLoadProgramWordsWrapsLikePoke(t *testing.T) {
	m, pk := NewMemory(), NewMemory()
	for _, mem := range []*Memory{m, pk} {
		mem.EnablePersistence()
		mem.StoreWord(0xFFFFFFF8, 1) // dirty the top line
		mem.StoreWord(0x4, 2)        // and the bottom one
	}
	words := []isa.Word{10, 11, 12, 13, 14, 15}
	m.LoadProgramWords(0xFFFFFFF2, words) // unaligned, as Poke allows
	for k, w := range words {
		pk.Poke(0xFFFFFFF0+uint32(4*k), w)
	}
	if !reflect.DeepEqual(m.Capture(), pk.Capture()) {
		t.Fatalf("wrapped load:\n%+v\npoked:\n%+v", m.Capture(), pk.Capture())
	}
}

// refTier is the persistence tier kept in maps, the differential
// reference for FuzzMemoryCrash. vol holds the volatile words of the
// lines the fuzz touches, indexed from their base.
type refTier struct {
	base    uint32
	vol     []isa.Word
	nv      map[uint32][LineWords]isa.Word // line -> NVM image, dirty lines only
	pending map[uint32]bool
}

func (r *refTier) store(a uint32, v isa.Word) {
	ln := a >> LineShift
	if _, dirty := r.nv[ln]; !dirty {
		var img [LineWords]isa.Word
		first := (ln<<LineShift - r.base) / 4
		copy(img[:], r.vol[first:first+LineWords])
		r.nv[ln] = img
	}
	delete(r.pending, ln)
	r.vol[(a-r.base)/4] = v
}

// poke is Poke: the word changes in both tiers, and a dirty line's NVM
// image takes it too.
func (r *refTier) poke(a uint32, v isa.Word) {
	if img, dirty := r.nv[a>>LineShift]; dirty {
		img[a>>2&(LineWords-1)] = v
		r.nv[a>>LineShift] = img
	}
	r.vol[(a-r.base)/4] = v
}

func (r *refTier) flush(a uint32) bool {
	_, dirty := r.nv[a>>LineShift]
	if dirty {
		r.pending[a>>LineShift] = true
	}
	return dirty
}

func (r *refTier) fence() int {
	n := len(r.pending)
	for ln := range r.pending {
		delete(r.nv, ln)
	}
	clear(r.pending)
	return n
}

func (r *refTier) nvPeek(a uint32) isa.Word {
	if img, dirty := r.nv[a>>LineShift]; dirty {
		return img[a>>2&(LineWords-1)]
	}
	return r.vol[(a-r.base)/4]
}

// image is what Capture of a memory holding exactly the reference's
// state returns; the lines must lie in one page.
func (r *refTier) image() *MemoryImage {
	img := &MemoryImage{Persist: true, Pages: []PageImage{{PN: r.base >> PageShift}}}
	copy(img.Pages[0].Words[r.base>>2&(PageWords-1):], r.vol)
	for _, ln := range SortedKeys(nil, r.nv) {
		img.NVLines = append(img.NVLines, LineImage{LN: ln, Words: r.nv[ln]})
	}
	img.PendingLines = SortedKeys(nil, r.pending)
	return img
}

// FuzzMemoryCrash runs a random sequence of stores, flushes, fences and
// program loads on a persistent memory beside refTier, then each crash
// kind on its own copy. A load (LoadProgramWords) must also leave the
// memory equal to a second one that took the same ops but pokes the
// load's words one at a time. After every op, FlushLine's and Fence's
// results, NVPeek of every word, DirtyLines, PendingLines (nil when
// empty), Capture and Digest must match the reference. Then it checks the crash rule word by word
// over the lines the sequence can touch:
//   - clean: Peek is unchanged, and NVPeek == Peek;
//   - volatile: Peek equals the pre-crash NVPeek;
//   - torn: a pending line keeps a prefix of its volatile words and the
//     NVM image after it; every other line reads its pre-crash NVPeek.
//
// After every kind the persistence buffer is empty.
func FuzzMemoryCrash(f *testing.F) {
	// Each op is an opcode byte and an argument byte: 0 stores, 1
	// flushes, 2 fences, 3 loads a run of words from the argument's word
	// to at most the end of the four lines. The last byte seeds the tear.
	f.Add([]byte{0, 1, 0, 17, 1, 1, 2, 0, 0, 40, 1, 40, 7})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 0, 20, 1, 20, 0, 21, 0xC0})
	f.Add([]byte{0, 5, 1, 5, 2, 0, 0, 5, 0, 6, 1, 6, 0, 50, 1, 50, 2, 0, 0, 63, 3})
	f.Add([]byte{0, 60, 0, 2, 0, 33, 0, 20, 1, 2, 1, 60, 0, 60, 1, 33, 2, 0, 1, 20, 0, 3, 9})
	f.Add([]byte{0, 5, 0, 40, 1, 40, 3, 3, 0, 20, 3, 29, 2, 0, 3, 0, 1, 5, 3, 41})
	const base, words = 0x8000, 4 * LineWords // four lines
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMemory()
		m.EnablePersistence()
		pk := NewMemory() // m's ops, with each load poked word by word
		pk.EnablePersistence()
		ref := &refTier{base: base, vol: make([]isa.Word, words),
			nv: map[uint32][LineWords]isa.Word{}, pending: map[uint32]bool{}}
		for i := 0; i+1 < len(ops) && i < 512; i += 2 {
			a := base + uint32(ops[i+1])%words*4
			switch ops[i] % 4 {
			case 0:
				m.StoreWord(a, isa.Word(i+1))
				pk.StoreWord(a, isa.Word(i+1))
				ref.store(a, isa.Word(i+1))
			case 1:
				if got, _ := m.FlushLine(a); got != ref.flush(a) {
					t.Fatalf("op %d: FlushLine(%#x) = %v, reference %v", i/2, a, got, !got)
				}
				pk.FlushLine(a)
			case 2:
				if got, want := m.Fence(), ref.fence(); got != want {
					t.Fatalf("op %d: Fence persisted %d lines, reference %d", i/2, got, want)
				}
				pk.Fence()
			case 3:
				n := min(1+int(ops[i+1])/words*7+i%11, int(base+words*4-a)/4)
				load := make([]isa.Word, n)
				for k := range load {
					load[k] = isa.Word(1000*(i+1) + k)
					pk.Poke(a+uint32(4*k), load[k])
					ref.poke(a+uint32(4*k), load[k])
				}
				m.LoadProgramWords(a, load)
				if !reflect.DeepEqual(m.Capture(), pk.Capture()) || m.Digest() != pk.Digest() {
					t.Fatalf("op %d: LoadProgramWords(%#x, %d words) differs from poking them", i/2, a, n)
				}
			}
			for w := uint32(0); w < words; w++ {
				if got, want := m.NVPeek(base+4*w), ref.nvPeek(base+4*w); got != want {
					t.Fatalf("op %d: NVPeek word %d = %d, reference %d", i/2, w, got, want)
				}
			}
			want := ref.image()
			if got := m.DirtyLines(); !reflect.DeepEqual(got, SortedKeys(nil, ref.nv)) {
				t.Fatalf("op %d: DirtyLines = %v, reference %v", i/2, got, SortedKeys(nil, ref.nv))
			}
			if got := m.PendingLines(); !reflect.DeepEqual(got, want.PendingLines) {
				t.Fatalf("op %d: PendingLines = %v, reference %v", i/2, got, want.PendingLines)
			}
			if got := m.Capture(); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Capture differs from the reference image", i/2)
			}
			r := NewMemory()
			r.Restore(want)
			if m.Digest() != r.Digest() {
				t.Fatalf("op %d: Digest differs from the reference memory's", i/2)
			}
		}
		var h uint64
		if len(ops) > 0 {
			h = uint64(ops[len(ops)-1])
		}
		var vol, nv [words]isa.Word
		for i := range vol {
			vol[i], nv[i] = m.Peek(base+uint32(i)*4), m.NVPeek(base+uint32(i)*4)
		}
		pending := map[uint32]bool{}
		for _, ln := range m.PendingLines() {
			pending[ln] = true
		}
		img := m.Capture()
		none := NewMemory()
		none.Restore(img)
		if !none.Crash(chaos.CrashNone, h) || !reflect.DeepEqual(none.Capture(), img) {
			t.Fatal("CrashNone changed memory")
		}
		for _, kind := range []chaos.CrashKind{chaos.CrashClean, chaos.CrashVolatile, chaos.CrashTorn} {
			c := NewMemory()
			c.Restore(img)
			if !c.Crash(kind, h) {
				t.Fatalf("kind %d: persistent memory refused the crash", kind)
			}
			if c.DirtyLines() != nil || c.PendingLines() != nil {
				t.Fatalf("kind %d: persistence buffer not empty after the crash", kind)
			}
			for line := 0; line < words/LineWords; line++ {
				kept := LineWords // the prefix of the line's words that kept their volatile contents
				for w := 0; w < LineWords; w++ {
					i := line*LineWords + w
					got := c.Peek(base + uint32(i)*4)
					if got != c.NVPeek(base+uint32(i)*4) {
						t.Fatalf("kind %d: word %d reads %d but NVM holds %d after the crash", kind, i, got, c.NVPeek(base+uint32(i)*4))
					}
					want := nv[i]
					switch {
					case kind == chaos.CrashClean:
						want = vol[i]
					case kind == chaos.CrashTorn && pending[(base>>LineShift)+uint32(line)]:
						if w < kept && got != vol[i] {
							kept = w
						}
						if w < kept {
							want = vol[i]
						}
					}
					if got != want {
						t.Fatalf("kind %d: word %d = %d, want %d (volatile %d, NVM %d, pending %v)",
							kind, i, got, want, vol[i], nv[i], pending[(base>>LineShift)+uint32(line)])
					}
				}
			}
		}
	})
}

// A warm persistence tier allocates nothing. kernel.Lives keeps one
// memory across a machine's crashes, so once the dirty-line slice has
// grown to a life's working set, later lives dirty, flush, fence and
// crash within its capacity.
func TestPersistTierSteadyStateAllocs(t *testing.T) {
	m := NewMemory()
	m.EnablePersistence()
	cycle := func() {
		// Out of line order, so entries are inserted mid-slice too.
		for _, line := range []uint32{5, 1, 7, 3, 0, 6, 2, 4} {
			m.StoreWord(0x8000+line*LineBytes, isa.Word(line))
		}
		m.FlushLine(0x8000 + 3*LineBytes)
		m.FlushLine(0x8000 + 6*LineBytes)
		if n := m.Fence(); n != 2 {
			t.Fatalf("Fence persisted %d lines, want 2", n)
		}
		m.Crash(chaos.CrashVolatile, 0)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm store/flush/fence/crash cycle allocated %.1f times, want 0", n)
	}
}

// BenchmarkPersistStoreFence is the host cost of the persistence tier's
// bookkeeping: each op stores to one line it flushes and fences and to
// one it leaves dirty, and every 64th op crashes, so the dirty set grows
// to 64 lines and empties again as a crash-restart campaign's does.
func BenchmarkPersistStoreFence(b *testing.B) {
	m := NewMemory()
	m.EnablePersistence()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		durable := 0x8000 + uint32(i%64)*LineBytes
		m.StoreWord(durable, isa.Word(i))
		m.StoreWord(0x10000+uint32(i*37%64)*LineBytes, isa.Word(i))
		m.FlushLine(durable)
		m.Fence()
		if i%64 == 63 {
			m.Crash(chaos.CrashVolatile, 0)
		}
	}
}

package vmach

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/isa"
)

func TestWatchObservesStores(t *testing.T) {
	m := NewMemory()
	type tr struct{ old, new isa.Word }
	var seen []tr
	m.Watch(0x1000, func(old, new isa.Word) { seen = append(seen, tr{old, new}) })
	if f := m.StoreWord(0x1000, 7); f != nil {
		t.Fatal(f)
	}
	if f := m.StoreWord(0x1004, 9); f != nil { // unwatched word
		t.Fatal(f)
	}
	if f := m.StoreWord(0x1000, 8); f != nil {
		t.Fatal(f)
	}
	m.Poke(0x1000, 99) // Poke bypasses watchpoints
	want := []tr{{0, 7}, {7, 8}}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("watch saw %v, want %v", seen, want)
	}
}

func TestWatchSurvivesRestore(t *testing.T) {
	m := NewMemory()
	fires := 0
	m.Watch(0x2000, func(_, _ isa.Word) { fires++ })
	m.StoreWord(0x2000, 1)
	img := m.Capture()
	m.Restore(img)
	m.StoreWord(0x2000, 2)
	if fires != 2 {
		t.Errorf("watch fired %d times across a restore, want 2", fires)
	}
}

func TestMemoryCaptureRestoreRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Poke(0x0, 1)
	m.Poke(0x3FFC, 2) // same page boundary word
	m.Poke(0x9000, 3)
	m.SetPresent(0x5000, false)
	m.LoadWord(0x5000) // take a page fault
	img := m.Capture()

	// Divergent mutations after the capture...
	m.Poke(0x0, 42)
	m.Poke(0x20000, 5) // new page
	m.SetPresent(0x5000, true)
	m.SetPresent(0x9000, false)

	// ...are all undone by the restore. The recapture must be deeply equal
	// — the determinism the kernel-level binary encoding relies on. (It is
	// checked first: Peek allocates pages on first touch.)
	m.Restore(img)
	if !reflect.DeepEqual(img, m.Capture()) {
		t.Error("recapture after restore differs")
	}
	if v := m.Peek(0x0); v != 1 {
		t.Errorf("word 0 = %d, want 1", v)
	}
	if v := m.Peek(0x20000); v != 0 {
		t.Errorf("post-capture page survived restore: %d", v)
	}
	if m.Present(0x5000) || !m.Present(0x9000) {
		t.Error("presence bits not restored")
	}
	if m.PageFaults != img.PageFaults {
		t.Errorf("PageFaults = %d, want %d", m.PageFaults, img.PageFaults)
	}
}

func TestMachineCaptureRestoreReplaysIdentically(t *testing.T) {
	// A short straight-line program: stores (exercising the write buffer)
	// interleaved with arithmetic.
	prog, err := asm.Assemble(`
		li   t0, 5
		li   t1, 0x100
		sw   t0, 0(t1)
		addi t0, t0, 1
		sw   t0, 4(t1)
		addi t0, t0, 1
		sw   t0, 8(t1)
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	run := func(m *Machine, ctx *Context, steps int) {
		for i := 0; i < steps; i++ {
			if ev := m.Step(ctx); ev.Kind != EventNone {
				t.Fatalf("step %d: unexpected event %v", i, ev)
			}
		}
	}
	total := len(prog.Text)
	mkMachine := func() (*Machine, *Context) {
		m := New(arch.R3000())
		m.Mem.LoadProgramWords(prog.TextBase, prog.Text)
		return m, &Context{PC: prog.TextBase}
	}

	// Reference: run straight through.
	ref, refCtx := mkMachine()
	run(ref, refCtx, total)

	// Checkpointed: run half, capture machine + context, restore into a
	// fresh machine, finish.
	half, halfCtx := mkMachine()
	run(half, halfCtx, 3)
	img := half.Capture()
	ctxCopy := *halfCtx

	fresh := New(arch.R3000())
	if err := fresh.Restore(img); err != nil {
		t.Fatal(err)
	}
	run(fresh, &ctxCopy, total-3)

	if fresh.Stats != ref.Stats {
		t.Errorf("replayed stats diverged:\n restored %+v\n reference %+v", fresh.Stats, ref.Stats)
	}
	if ctxCopy != *refCtx {
		t.Errorf("replayed context diverged:\n restored %+v\n reference %+v", ctxCopy, *refCtx)
	}
	if !reflect.DeepEqual(fresh.Mem.Capture(), ref.Mem.Capture()) {
		t.Error("replayed memory diverged")
	}
}

func TestRestoreRejectsProfileMismatch(t *testing.T) {
	a := New(arch.R3000())
	img := a.Capture()
	img.ProfileName = "some-other-cpu"
	if err := a.Restore(img); err == nil {
		t.Fatal("profile mismatch not rejected")
	}
}

// Decoding, MemoryImage.Walk refuses every persistence tier Capture
// cannot produce: Memory holds each dirty line once, in line order, with
// its pending flag beside its NVM image.
func TestDecodeRejectsImpossibleTiers(t *testing.T) {
	errBad := errors.New("bad image")
	lines := func(lns ...uint32) []LineImage {
		var out []LineImage
		for _, ln := range lns {
			out = append(out, LineImage{LN: ln, Words: [LineWords]isa.Word{isa.Word(ln)}})
		}
		return out
	}
	for _, c := range []struct {
		name    string
		persist bool
		nv      []LineImage
		pending []uint32
		want    string // "" when the image is one Capture can produce
	}{
		{"captured tier", true, lines(3, 9), []uint32{9}, ""},
		{"NVM lines out of order", true, lines(9, 3), nil, "NVM lines not strictly increasing"},
		{"NVM line twice", true, lines(3, 3), nil, "NVM lines not strictly increasing"},
		{"pending lines out of order", true, lines(3, 9), []uint32{9, 3}, "pending lines not strictly increasing"},
		{"pending line twice", true, lines(3), []uint32{3, 3}, "pending lines not strictly increasing"},
		{"pending line without an NVM image", true, lines(3, 9), []uint32{4}, "pending line 0x4 has no NVM image"},
		{"pending line past the NVM lines", true, lines(3), []uint32{3, 10}, "pending line 0xa has no NVM image"},
		{"lines without the model", false, lines(3), nil, "persistence lines on a memory without the model"},
	} {
		img := &MemoryImage{Persist: c.persist, NVLines: c.nv, PendingLines: c.pending}
		enc := Encoder(nil)
		img.Walk(&enc)
		dec := Decoder(enc.Bytes(), errBad)
		got := &MemoryImage{}
		got.Walk(&dec)
		err := dec.Err()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && !reflect.DeepEqual(got, img):
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, img)
		case c.want != "" && (!errors.Is(err, errBad) || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

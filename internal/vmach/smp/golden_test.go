package smp

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSMPCheckpointGolden pins the v2 container format and the model
// checker's state key of a paused 2-CPU hybrid-lock counter: a fresh
// capture at the pinned cut encodes to the committed bytes, the
// committed bytes decode, restore and replay to the original's final
// state, and the per-CPU state keys, concatenated as the checker hashes
// them, match the committed hex. A deliberate format change bumps
// smpVersion and replaces the files.
func TestSMPCheckpointGolden(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	orig, snap, counter := midRunSnapshot(t, 400)
	want := read("smp-v2.bin")
	if got := snap.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("capture encodes to %d bytes that differ from the %d pinned ones", len(got), len(want))
	}
	var key []byte
	for _, k := range orig.CPUs {
		key = k.AppendStateKey(key)
	}
	if got, want := hex.EncodeToString(key), strings.TrimSpace(string(read("statekey-hybrid.hex"))); got != want {
		t.Errorf("state key changed:\n got  %s\n want %s", got, want)
	}

	dec, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(Config{}, dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Mem.Peek(counter), orig.Mem.Peek(counter); got != want {
		t.Errorf("counter: restored %d, original %d", got, want)
	}
	for i := range orig.CPUs {
		if restored.CPUs[i].M.Stats != orig.CPUs[i].M.Stats || restored.CPUs[i].Stats != orig.CPUs[i].Stats {
			t.Errorf("cpu%d stats diverged after replay", i)
		}
	}
}

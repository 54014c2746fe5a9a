package kernel

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guest"
)

// The checkpoint goldens pin the wire format itself. The round-trip
// tests only check that encode and decode agree with each other, so a
// field moved in both would pass them; these blobs were encoded by an
// earlier build and must still match byte for byte. A deliberate format
// change bumps checkpointVersion and replaces the files.

const goldenStep = 300

// goldenCheckpoints are the pinned kernel captures: ckptProgram at
// goldenStep, on plain memory and on persistent memory with dirty and
// pending lines. Each returns the paused kernel.
var goldenCheckpoints = map[string]func(t *testing.T) *Kernel{
	"ckpt-v3.bin": func(t *testing.T) *Kernel {
		k := ckptBoot(t, nil)
		if fin, err := k.RunSteps(goldenStep); fin {
			t.Fatalf("run finished early: %v", err)
		}
		return k
	},
	"ckpt-v3-persist.bin": func(t *testing.T) *Kernel {
		k, prog := boot(t, ckptConfig(nil), ckptProgram)
		k.M.Mem.EnablePersistence()
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(1))
		if fin, err := k.RunSteps(goldenStep); fin {
			t.Fatalf("run finished early: %v", err)
		}
		k.M.Mem.FlushLine(prog.MustSymbol("counter"))
		if len(k.M.Mem.DirtyLines()) == 0 || len(k.M.Mem.PendingLines()) == 0 {
			t.Fatal("persistent capture has no dirty or no pending lines")
		}
		return k
	},
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointGolden: a fresh capture at the pinned cut encodes to the
// committed bytes, and the committed bytes decode, restore and replay to
// the state the uninterrupted kernel reaches.
func TestCheckpointGolden(t *testing.T) {
	for name, pause := range goldenCheckpoints {
		t.Run(name, func(t *testing.T) {
			want := readGolden(t, name)
			k := pause(t)
			if got := k.Capture().Encode(); !bytes.Equal(got, want) {
				t.Fatalf("capture encodes to %d bytes that differ from the %d pinned ones", len(got), len(want))
			}
			dec, err := DecodeSnapshot(want)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := Restore(ckptConfig(nil), dec)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if err := k2.Run(); err != nil {
				t.Fatal(err)
			}
			compareRuns(t, k2, k)
		})
	}
}

// TestStateKeyGolden pins the model checker's state key of stateKeyBase,
// whose every keyed field is populated.
func TestStateKeyGolden(t *testing.T) {
	s, cfg := stateKeyBase(t)
	k, err := Restore(cfg(), s)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(readGolden(t, "statekey-base.hex")))
	if got := hex.EncodeToString(k.AppendStateKey(nil)); got != want {
		t.Errorf("state key changed:\n got  %s\n want %s", got, want)
	}
}

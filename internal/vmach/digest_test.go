package vmach

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// digestBase is the first of the three pages FuzzMemoryDigest writes.
const digestBase = 0x40000

// FuzzMemoryDigest runs a random sequence of memory operations — stores,
// pokes, peeks that allocate pages, presence flips, the persistence
// operations (enable, flush, fence, volatile and torn crash reverts),
// program loads across a page boundary and Capture/Restore — with Digest
// calls in between. At every Digest the
// incrementally maintained digest must equal the digest of a fresh memory
// restored from Capture(), and two digests may only be equal when their
// images are (PageFaults aside). A write path that forgets to mark its
// page's digest stale fails the first check after it.
func FuzzMemoryDigest(f *testing.F) {
	// Each op is an opcode byte followed by its argument bytes; see the
	// switch below. 11 is a digest check, 12 a program load.
	f.Add([]byte{
		0, 0, 1, 7, 11, // store page 0 word 1, check
		0, 0, 1, 8, 11, // store the same word again: a cache hit
		0, 1, 2, 9, 11, // a store to another page: a cache miss
		1, 0, 3, 4, 11, // poke page 0
		10, 5, 0, 11, // peek a new page into existence
		0, 0, 1, 9, 11, // store again through the cache
	})
	f.Add([]byte{
		3,              // persistence on
		0, 0, 1, 5, 11, // dirty a line
		4, 0, 1, 5, 11, // flush it, fence it
		0, 0, 20, 6, 11, // dirty a second line,
		0, 1, 2, 3, 11, // and one on page 1
		6, 11, // a volatile crash reverts all three
		0, 0, 1, 7, 4, 0, 1, // dirty and flush one line,
		0, 0, 20, 8, 11, // dirty another
		7, 0xC0, 11, // a torn crash
		0, 0, 3, 1, 11, 1, 0, 3, 9, 11, // poke through a dirty line
	})
	f.Add([]byte{
		0, 0, 1, 1, 0, 1, 1, 2, 11,
		8,              // capture
		0, 0, 1, 3, 11, // diverge
		9, 11, // restore the capture
		0, 0, 1, 4, 11, // store after the restore
		2, 1, 0, 11, // page 1 not present
		0, 1, 5, 6, 11, // so this store faults
		2, 1, 0, 0, 1, 5, 6, 11, // present again, and it lands
		10, 7, 0, 11, 9, 11, // a page the capture lacks, then restore
	})
	f.Add([]byte{
		10, 1, 0, 10, 2, 0, 11, // pages 1 and 2 exist and are digested
		12, 1, 10, 200, 11, // a load from page 1's end into page 2
		3, 0, 2, 5, 9, 11, // dirty a line on page 2
		12, 1, 30, 100, 11, // a load over it
		6, 11, // a volatile crash keeps the loaded words
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMemory()
		var saved *MemoryImage
		seen := map[[32]byte]*MemoryImage{}
		check := func(at int) {
			t.Helper()
			got := m.Digest()
			img := m.Capture()
			fresh := NewMemory()
			fresh.Restore(img)
			if want := fresh.Digest(); got != want {
				t.Fatalf("op %d: incremental digest %x, fresh %x", at, got, want)
			}
			img.PageFaults = 0
			if prev, ok := seen[got]; ok && !reflect.DeepEqual(prev, img) {
				t.Fatalf("op %d: digest %x names two images:\n%+v\n%+v", at, got, prev, img)
			}
			seen[got] = img
		}
		at := 0
		arg := func() byte {
			at++
			if at < len(ops) {
				return ops[at]
			}
			return 0
		}
		// addr picks a word in one of three pages, across its first three
		// lines; an argument byte of 0xF8 or more makes it unaligned.
		addr := func() uint32 {
			pn, w := arg(), arg()
			a := digestBase + uint32(pn%3)*PageSize + uint32(w%48)*4
			if w >= 0xF8 {
				a++
			}
			return a
		}
		for ; at < len(ops) && at < 4096; at++ {
			switch op := ops[at]; op % 13 {
			case 0:
				a := addr()
				m.StoreWord(a, uint32(arg()))
			case 1:
				a := addr()
				m.Poke(a&^3, uint32(arg()))
			case 2:
				a := addr()
				m.SetPresent(a, !m.Present(a))
			case 3:
				m.EnablePersistence()
			case 4:
				m.FlushLine(addr())
			case 5:
				m.Fence()
			case 6:
				m.Crash(chaos.CrashVolatile, 0)
			case 7:
				m.Crash(chaos.CrashTorn, uint64(arg()))
			case 8:
				saved = m.Capture()
			case 9:
				if saved != nil {
					m.Restore(saved)
				}
			case 10:
				pn, w := arg(), arg()
				m.Peek(digestBase + uint32(pn)*PageSize + uint32(w%48)*4)
			case 11:
				check(at)
			case 12:
				// A program load from a word near a page's end, into the
				// next page: both pages' digests must go stale.
				a, n := addr(), int(arg())
				words := make([]uint32, n)
				for k := range words {
					words[k] = uint32(at + k)
				}
				m.LoadProgramWords(a+PageSize-48*4, words)
			}
		}
		check(at)
	})
}

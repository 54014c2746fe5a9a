package journal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/uniproc"
)

// recordWords is the arena extent of a record with the given path and
// data: header and seq, the payload, the checksum.
func recordWords(path string, data []byte) int {
	return headWords + 2 + wordsFor(len(path)) + wordsFor(len(data)) + 1
}

// mountLoads mounts arena on a fresh persistent processor and returns the
// mounted head, the replayed records and the loads the mount charged: the
// Processor.MemOps delta less the zeroing's stores, each of which is
// followed by exactly one flush. The tail audit must hold after it.
func mountLoads(t *testing.T, arena []uniproc.Word) (int, []Record, uint64) {
	t.Helper()
	var head int
	var recs []Record
	var loads uint64
	p := uniproc.New(uniproc.Config{})
	p.EnablePersistence()
	p.Go("main", func(e *uniproc.Env) {
		ops, flushes := p.MemOps(), p.Stats.Flushes
		l, rs, err := Mount(e, arena, Options{})
		loads = p.MemOps() - ops - (p.Stats.Flushes - flushes)
		if err != nil {
			t.Error(err)
			return
		}
		if err := l.CheckTail(p); err != nil {
			t.Error(err)
		}
		head, recs = len(arena)-l.Free(), rs
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return head, recs, loads
}

// A mount's loads are the log's, not the arena's: on a 16,384-word arena
// it reads the valid prefix (each record's header, then its extent) plus
// the one header past it, and for a torn record that header's extent. A
// whole-arena scan costs thousands more loads and fails.
func TestMountCostIsTheLogs(t *testing.T) {
	const words = 1 << 14
	prefix := []struct{ path, data string }{
		{"/a", ""}, {"/a", "alpha"}, {"/b", "some longer data word"},
	}
	prefixLoads := uint64(0)
	for _, r := range prefix {
		prefixLoads += 1 + uint64(recordWords(r.path, []byte(r.data)))
	}

	empty := make([]uniproc.Word, words)
	if head, _, loads := mountLoads(t, empty); head != 0 || loads != 1 {
		t.Errorf("empty arena: head %d, %d loads, want head 0 and exactly 1 load", head, loads)
	}

	// appendAll appends the prefix and then torn, crashing at persist op
	// crashAt (0: no crash).
	appendAll := func(arena []uniproc.Word, crashAt uint64, torn []byte) uint64 {
		p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
			Point: chaos.PointPersist, N: crashAt, Action: chaos.Action{Crash: chaos.CrashTorn},
		}})
		p.EnablePersistence()
		p.Go("main", func(e *uniproc.Env) {
			l, _, err := Mount(e, arena, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range prefix {
				if _, err := l.Append(e, OpWriteFile, r.path, []byte(r.data)); err != nil {
					t.Error(err)
				}
			}
			if torn != nil {
				l.Append(e, OpAppend, "/log", torn)
			}
		})
		err := p.Run()
		if crashAt == 0 && err != nil {
			t.Fatal(err)
		}
		return p.PersistOps()
	}

	clean := make([]uniproc.Word, words)
	prefixOps := appendAll(clean, 0, nil)
	if _, recs, loads := mountLoads(t, clean); len(recs) != len(prefix) || loads != prefixLoads+1 {
		t.Errorf("clean log: %d records in %d loads, want %d in exactly %d (one word past the head)",
			len(recs), loads, len(prefix), prefixLoads+1)
	}

	data := bytes.Repeat([]byte("x"), 200)
	extent := recordWords("/log", data)
	headAt := 0
	for _, r := range prefix {
		headAt += recordWords(r.path, []byte(r.data))
	}
	debris := 0
	for c := prefixOps + 1; c <= prefixOps+uint64(extent); c++ {
		arena := make([]uniproc.Word, words)
		appendAll(arena, c, data)
		if arena[headAt] == 0 {
			continue // the tear kept none of the record
		}
		debris++
		head, recs, loads := mountLoads(t, arena)
		if head != headAt || len(recs) != len(prefix) {
			t.Fatalf("crash %d: head %d with %d records, want %d with %d", c, head, len(recs), headAt, len(prefix))
		}
		if limit := prefixLoads + 1 + uint64(extent); loads > limit {
			t.Errorf("crash %d: mount charged %d loads, want at most %d (prefix %d + header + debris extent %d)",
				c, loads, limit, prefixLoads, extent)
		}
	}
	if debris == 0 {
		t.Fatal("no torn crash left a partial record to mount over")
	}
}

// fuzzArenaWords is FuzzMount's arena: small enough that random appends
// fill it, so ErrFull is on the path too.
const fuzzArenaWords = 160

// FuzzMount appends random records, crashes (of a kind and at a persist
// ordinal drawn from the input) during the appends, crashes again at a
// second ordinal that may fall inside the next boot's mount, and then
// remounts. After every mount that completes, every arena word past the
// head must be zero in both tiers (CheckTail), and the replayed records
// must be a prefix of the appended ones that includes every append that
// returned.
func FuzzMount(f *testing.F) {
	// ops: each byte is one append (kind, path and data lengths).
	f.Add([]byte{0x11, 0x93, 0x4a, 0xff}, uint16(9), uint8(2), uint16(3), uint8(2))
	f.Add([]byte{0x40, 0x41, 0x42}, uint16(14), uint8(2), uint16(1), uint8(1))
	f.Add([]byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4}, uint16(40), uint8(0), uint16(2), uint8(2))
	f.Add([]byte{0x07}, uint16(2), uint8(1), uint16(5), uint8(0))
	f.Fuzz(func(t *testing.T, ops []byte, c1 uint16, k1 uint8, c2 uint16, k2 uint8) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		kinds := []chaos.CrashKind{chaos.CrashClean, chaos.CrashVolatile, chaos.CrashTorn}
		arena := make([]uniproc.Word, fuzzArenaWords)
		var logged []Record // appends started and not refused, in order
		returned := 0       // how many of them returned
		// boot runs one life over arena: mount (audited and checked),
		// then body, with a crash at persist op c of kind k.
		boot := func(c uint16, k uint8, body func(e *uniproc.Env, l *Log) error) {
			p := uniproc.New(uniproc.Config{Faults: chaos.OneShot{
				Point: chaos.PointPersist, N: uint64(c), Action: chaos.Action{Crash: kinds[int(k)%len(kinds)]},
			}})
			p.EnablePersistence()
			var failed error
			p.Go("main", func(e *uniproc.Env) {
				failed = func() error {
					l, recs, err := Mount(e, arena, Options{})
					if err != nil {
						return err
					}
					if err := l.CheckTail(p); err != nil {
						return fmt.Errorf("after mount: %w", err)
					}
					if len(recs) < returned || len(recs) > len(logged) {
						return fmt.Errorf("replayed %d records; %d appends returned, %d were logged", len(recs), returned, len(logged))
					}
					for i, r := range recs {
						w := logged[i]
						if r.Seq != uint32(i+1) || r.Kind != w.Kind || r.Path != w.Path || !bytes.Equal(r.Data, w.Data) {
							return fmt.Errorf("record %d replayed as %+v, appended as %+v", i, r, w)
						}
					}
					// The log now holds exactly recs: a later boot replays a
					// prefix of them and of what this one appends.
					logged, returned = logged[:len(recs)], len(recs)
					if body == nil {
						return nil
					}
					return body(e, l)
				}()
			})
			if err := p.Run(); err != nil && !errors.Is(err, uniproc.ErrMachineCrash) {
				t.Fatal(err)
			}
			if failed != nil {
				t.Fatal(failed)
			}
		}
		boot(c1, k1, func(e *uniproc.Env, l *Log) error {
			for i, b := range ops {
				rec := Record{
					Kind: Kind(b%uint8(numKinds-1)) + 1,
					Path: strings.Repeat("p", int(b>>3)%9),
					Data: bytes.Repeat([]byte{byte(i + 1)}, int(b>>4)*3),
				}
				logged = append(logged, rec)
				if _, err := l.Append(e, rec.Kind, rec.Path, rec.Data); err != nil {
					if !errors.Is(err, ErrFull) {
						return err
					}
					logged = logged[:len(logged)-1]
					continue
				}
				returned = len(logged)
			}
			return nil
		})
		boot(c2, k2, nil) // the crash may land inside this mount's zeroing
		boot(0, 0, nil)
	})
}

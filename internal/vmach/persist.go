package vmach

import (
	"slices"

	"repro/internal/chaos"
	"repro/internal/isa"
)

// Two-tier persistence model (NVRAM). The recoverable-mutex literature the
// recovery work follows (Jayanti & Joshi; Chan & Woelfel) assumes a machine
// whose main memory survives a crash while its caches do not. This file
// models that split: in front of the non-volatile store sits a volatile
// write-back buffer of 64-byte lines (the SMP coherence line geometry).
// A committed store lands in the volatile tier only; the line's NVM image
// keeps its pre-store contents until the guest writes the line back with
// the flush instruction AND makes the write-back durable with fence. A
// volatile crash (chaos.CrashVolatile) discards the volatile tier,
// reverting every unflushed line to its NVM image — which is exactly the
// state a recovery path gets to see. Crash is the one rule for every
// crash kind.
//
// The model is conservative and deterministic: a line flushed but not yet
// fenced does NOT survive a crash, and a store to a flushed-but-unfenced
// line cancels the outstanding write-back (it must be flushed again).
//
// The volatile tier is held as one slice of dirty lines, sorted by line
// number and searched by bisection: each entry carries the line's NVM
// image and its pending (flushed, not fenced) flag. A store to a clean
// line inserts an entry in place, a fence compacts the slice over the
// lines it persisted, and a crash truncates it, so a machine that keeps
// its memory across crashes allocates nothing per dirtied line once the
// slice has grown to its working size.
//
// Persistence is off by default — Memory behaves as fully persistent RAM,
// the clean-crash semantics — and is enabled per memory with
// EnablePersistence.

// Line geometry: 64-byte lines of 16 words, matching smp.LineShift.
const (
	LineShift = 6
	LineBytes = 1 << LineShift
	LineWords = LineBytes / 4
)

// dirtyLine is one line of the volatile tier: its line number, its NVM
// image (the contents a crash reverts it to), and whether a write-back
// has been initiated (flush) but not yet made durable (fence).
type dirtyLine struct {
	ln      uint32
	pending bool
	img     [LineWords]isa.Word
}

// EnablePersistence switches the memory to the two-tier model. Contents
// already in memory (e.g. a loaded program image) are treated as durable.
func (m *Memory) EnablePersistence() { m.persist = true }

// Persistent reports whether the two-tier persistence model is enabled.
func (m *Memory) Persistent() bool { return m.persist }

// findLine returns the index of line ln in m.dirty, or the index where it
// would be inserted, and whether it is there. The search is written out
// rather than calling slices.BinarySearchFunc, whose comparison closure
// costs a call per probe on every store.
func (m *Memory) findLine(ln uint32) (int, bool) {
	lo, hi := 0, len(m.dirty)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.dirty[mid].ln < ln {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.dirty) && m.dirty[lo].ln == ln
}

// shadow snapshots the line holding addr, on page p, into the NVM tier
// before its first volatile overwrite, and cancels any outstanding
// write-back for it. Caller must only invoke it with persistence enabled,
// before the store.
func (m *Memory) shadow(p *[PageWords]isa.Word, addr uint32) {
	ln := addr >> LineShift
	i, ok := m.findLine(ln)
	if !ok {
		m.dirty = append(m.dirty, dirtyLine{})
		copy(m.dirty[i+1:], m.dirty[i:])
		d := &m.dirty[i]
		d.ln = ln
		copy(d.img[:], p[addr>>2&(PageWords-1)&^(LineWords-1):])
	}
	m.dirty[i].pending = false
}

// FlushLine initiates write-back of the 64-byte line holding addr toward
// NVM (clwb-style). The write-back only becomes durable at the next Fence.
// It reports whether the line had volatile contents to write back. Like
// any memory reference it faults on a not-present page; unlike loads and
// stores it has no alignment requirement (the low six bits are ignored).
func (m *Memory) FlushLine(addr uint32) (bool, *Fault) {
	if m.notPresent[addr>>PageShift] {
		m.PageFaults++
		return false, &Fault{FaultNotPresent, addr}
	}
	i, ok := m.findLine(addr >> LineShift)
	if !ok {
		return false, nil // a clean line, or a hint on fully persistent memory
	}
	m.dirty[i].pending = true
	return true, nil
}

// Fence makes every initiated write-back durable: each pending line's
// volatile contents become its NVM contents, so its entry is dropped.
// Returns how many lines were persisted (the machine charges NVM
// write-back latency per line).
func (m *Memory) Fence() int {
	kept := 0
	for i := range m.dirty {
		if !m.dirty[i].pending {
			if kept != i {
				m.dirty[kept] = m.dirty[i]
			}
			kept++
		}
	}
	n := len(m.dirty) - kept
	m.dirty = m.dirty[:kept]
	return n
}

// Crash applies a crash of kind k to memory, line by line, and reports
// whether the memory could honour it: a volatile or torn crash needs the
// persistence model, and without it leaves memory as a clean crash does.
//   - clean: every committed store survives, and the volatile tier
//     becomes durable (as under eADR): no line keeps an NVM image older
//     than its contents, so a later crash cannot revert it;
//   - volatile: every line whose write-back has not been fenced reverts
//     to its NVM image;
//   - torn: as volatile, except that each line with a pending write-back
//     (flushed, not fenced) keeps a prefix of its volatile words, its
//     length derived from h and the line number so the tear replays.
//
// Either way the persistence buffer empties, keeping its capacity for
// the next life. Watchpoints do not fire: a crash is not a committed
// store.
func (m *Memory) Crash(k chaos.CrashKind, h uint64) bool {
	if !m.persist || k == chaos.CrashNone {
		return k <= chaos.CrashClean
	}
	for i := range m.dirty {
		d := &m.dirty[i]
		keep := 0 // words of the line whose volatile contents persist
		switch {
		case k == chaos.CrashClean:
			keep = LineWords
		case k == chaos.CrashTorn && d.pending:
			keep = int(chaos.Mix(h^uint64(d.ln)) % (LineWords + 1))
		}
		base := d.ln << LineShift
		mem := m.page(base)[base>>2&(PageWords-1):][:LineWords]
		if !slices.Equal(mem[keep:], d.img[keep:]) {
			copy(mem[keep:], d.img[keep:])
			m.invalidateDigest(base >> PageShift)
		}
	}
	m.dirty = m.dirty[:0]
	return true
}

// NVPeek reads the NVM-tier value of the word at addr — what a crash at
// this instant would leave behind — without disturbing either tier.
func (m *Memory) NVPeek(addr uint32) isa.Word {
	if i, ok := m.findLine(addr >> LineShift); ok {
		return m.dirty[i].img[addr>>2&(LineWords-1)]
	}
	return m.Peek(addr)
}

// DirtyLines returns the sorted line numbers whose volatile contents
// differ from NVM (including lines with a pending, unfenced write-back),
// or nil if there are none.
func (m *Memory) DirtyLines() []uint32 {
	var lns []uint32
	for i := range m.dirty {
		lns = append(lns, m.dirty[i].ln)
	}
	return lns
}

// PendingLines returns the sorted line numbers with an initiated but not
// yet fenced write-back, or nil if there are none.
func (m *Memory) PendingLines() []uint32 { return m.appendPending(nil) }

// appendPending appends the pending line numbers to dst in order.
func (m *Memory) appendPending(dst []uint32) []uint32 {
	for i := range m.dirty {
		if m.dirty[i].pending {
			dst = append(dst, m.dirty[i].ln)
		}
	}
	return dst
}

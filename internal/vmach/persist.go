package vmach

import (
	"cmp"
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
// Persistence is off by default — Memory behaves as fully persistent RAM,
// the clean-crash semantics — and is enabled per memory with
// EnablePersistence.

// Line geometry: 64-byte lines of 16 words, matching smp.LineShift.
const (
	LineShift = 6
	LineBytes = 1 << LineShift
	LineWords = LineBytes / 4
)

// EnablePersistence switches the memory to the two-tier model. Contents
// already in memory (e.g. a loaded program image) are treated as durable.
func (m *Memory) EnablePersistence() {
	m.persist = true
	if m.nvLines == nil {
		m.nvLines = make(map[uint32]*[LineWords]isa.Word)
		m.pending = make(map[uint32]bool)
	}
}

// Persistent reports whether the two-tier persistence model is enabled.
func (m *Memory) Persistent() bool { return m.persist }

// shadow snapshots the line holding addr into the NVM tier before its
// first volatile overwrite, and cancels any outstanding write-back for it.
// Caller must only invoke it with persistence enabled, before the store.
func (m *Memory) shadow(addr uint32) {
	line := addr >> LineShift
	if _, dirty := m.nvLines[line]; !dirty {
		img := new([LineWords]isa.Word)
		base := line << LineShift
		copy(img[:], m.page(base)[base>>2&(PageWords-1):][:LineWords])
		m.nvLines[line] = img
	}
	delete(m.pending, line)
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
	if !m.persist {
		return false, nil // a hint on fully persistent memory
	}
	line := addr >> LineShift
	if _, dirty := m.nvLines[line]; !dirty {
		return false, nil
	}
	m.pending[line] = true
	return true, nil
}

// Fence makes every initiated write-back durable: each pending line's
// volatile contents become its NVM contents. Returns how many lines were
// persisted (the machine charges NVM write-back latency per line).
func (m *Memory) Fence() int {
	n := len(m.pending)
	for line := range m.pending {
		delete(m.nvLines, line)
	}
	clear(m.pending)
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
// Either way the persistence buffer empties. Watchpoints do not fire: a
// crash is not a committed store.
func (m *Memory) Crash(k chaos.CrashKind, h uint64) bool {
	if !m.persist || k == chaos.CrashNone {
		return k <= chaos.CrashClean
	}
	for line, img := range m.nvLines {
		keep := 0 // words of the line whose volatile contents persist
		switch {
		case k == chaos.CrashClean:
			keep = LineWords
		case k == chaos.CrashTorn && m.pending[line]:
			keep = int(chaos.Mix(h^uint64(line)) % (LineWords + 1))
		}
		base := line << LineShift
		mem := m.page(base)[base>>2&(PageWords-1):][:LineWords]
		if !slices.Equal(mem[keep:], img[keep:]) {
			copy(mem[keep:], img[keep:])
			m.invalidateDigest(base >> PageShift)
		}
	}
	clear(m.nvLines)
	clear(m.pending)
	return true
}

// NVPeek reads the NVM-tier value of the word at addr — what a crash at
// this instant would leave behind — without disturbing either tier.
func (m *Memory) NVPeek(addr uint32) isa.Word {
	if m.persist {
		if img, dirty := m.nvLines[addr>>LineShift]; dirty {
			return img[addr>>2&(LineWords-1)]
		}
	}
	return m.Peek(addr)
}

// DirtyLines returns the sorted line numbers whose volatile contents
// differ from NVM (including lines with a pending, unfenced write-back).
func (m *Memory) DirtyLines() []uint32 { return SortedKeys(nil, m.nvLines) }

// PendingLines returns the sorted line numbers with an initiated but not
// yet fenced write-back.
func (m *Memory) PendingLines() []uint32 { return SortedKeys(nil, m.pending) }

// SortedKeys appends the keys of km to dst in ascending order.
func SortedKeys[K cmp.Ordered, V any](dst []K, km map[K]V) []K {
	if len(km) == 0 { // skip the iterator's setup: state hashing sorts many empty maps
		return dst
	}
	for k := range km {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

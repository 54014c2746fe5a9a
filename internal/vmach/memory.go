// Package vmach implements the simulated uniprocessor: a paged word-addressed
// memory and a cycle-counting interpreter for the internal/isa instruction
// set. Thread contexts, scheduling, traps and the restartable-atomic-sequence
// machinery live one level up, in vmach/kernel, which drives this machine.
package vmach

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Page geometry: 4 KiB pages of 1024 words, as on the R3000.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageWords = PageSize / 4
)

// FaultKind classifies memory and instruction faults.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultUnaligned
	FaultNotPresent // page fault
	FaultIllegal    // undefined or unsupported instruction
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultUnaligned:
		return "unaligned access"
	case FaultNotPresent:
		return "page fault"
	case FaultIllegal:
		return "illegal instruction"
	}
	return fmt.Sprintf("fault?%d", int(k))
}

// Fault describes a failed access.
type Fault struct {
	Kind FaultKind
	Addr uint32 // faulting address (or PC for illegal instructions)
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%v at %#x", f.Kind, f.Addr)
}

// Memory is a sparse paged physical memory. Pages are allocated on first
// touch; tests and the kernel can additionally mark pages not-present to
// exercise page-fault paths (§4 of the paper discusses PC checks that can
// themselves fault).
type Memory struct {
	pages      map[uint32]*[PageWords]isa.Word
	notPresent map[uint32]bool // page number -> forced page fault
	// PageFaults counts not-present faults taken.
	PageFaults uint64

	// Two-tier persistence (see persist.go). When persist is false —
	// the default — memory is fully persistent RAM and dirty stays
	// empty. dirty holds one entry per line whose volatile contents
	// differ from NVM, sorted by line number: the line's NVM image and
	// whether it has an initiated (flush) but not yet durable (fence)
	// write-back. Crash and Fence shrink it in place, so a warm memory
	// reuses its capacity and a dirtied line allocates nothing.
	persist bool
	dirty   []dirtyLine

	// watchers, keyed by word address, observe committed stores. Harness
	// state, not machine state: snapshots do not capture them.
	watchers map[uint32][]func(old, new isa.Word)

	// One-entry page caches for instruction fetch and for data loads and
	// stores, so the common access skips both map lookups. A cached page
	// is always present and is the page pages maps it to. SetPresent and
	// Restore, the only writers of notPresent and of existing pages
	// entries, flush both caches.
	fetchCache, dataCache pageCache

	// Per-page digest cache behind Digest (see digest.go), nil until the
	// memory is first hashed. digests maps a page number to its entry;
	// digestOrder holds the same entries sorted by page number. Every
	// write to a page's words marks its entry stale.
	digests     map[uint32]*pageDigest
	digestOrder []*pageDigest
	// Scratch space Digest reuses: the bytes it hashes and the sorted
	// page and line numbers it reads them from.
	digestBuf  []byte
	digestKeys []uint32

	// text is the predecoded program text installed at textBase (SetText).
	// It is derived from the program, not machine state: snapshots do not
	// capture it.
	textBase uint32
	text     []isa.Predecoded
}

// pageCache is a one-entry page cache: the last page one access path
// touched, its page number, and its digest entry (nil until the page is
// first hashed).
type pageCache struct {
	pn   uint32
	page *[PageWords]isa.Word
	dig  *pageDigest
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{
		pages:      make(map[uint32]*[PageWords]isa.Word),
		notPresent: make(map[uint32]bool),
	}
}

func (m *Memory) page(addr uint32) *[PageWords]isa.Word {
	pn := addr >> PageShift
	p := m.pages[pn]
	if p == nil {
		p = new([PageWords]isa.Word)
		m.pages[pn] = p
	}
	return p
}

// SetPresent marks the page containing addr present (true) or not-present
// (false). Accessing a not-present page raises FaultNotPresent; the page's
// contents are preserved.
func (m *Memory) SetPresent(addr uint32, present bool) {
	m.flushPageCaches()
	pn := addr >> PageShift
	if present {
		delete(m.notPresent, pn)
	} else {
		m.notPresent[pn] = true
	}
}

// Present reports whether the page containing addr is present.
func (m *Memory) Present(addr uint32) bool {
	return !m.notPresent[addr>>PageShift]
}

func (m *Memory) check(addr uint32) *Fault {
	if addr&3 != 0 {
		return &Fault{FaultUnaligned, addr}
	}
	if m.notPresent[addr>>PageShift] {
		m.PageFaults++
		return &Fault{FaultNotPresent, addr}
	}
	return nil
}

func (m *Memory) flushPageCaches() { m.fetchCache, m.dataCache = pageCache{}, pageCache{} }

// cachedPage returns the page holding addr through the one-entry cache c,
// with check's faults. Only an aligned access to the cached page skips
// check.
func (m *Memory) cachedPage(c *pageCache, addr uint32) (*[PageWords]isa.Word, *Fault) {
	if c.page != nil && addr>>PageShift == c.pn && addr&3 == 0 {
		return c.page, nil
	}
	return m.fillPageCache(c, addr)
}

// fillPageCache is the miss path of a page cache: check the access, then
// cache the page, allocating it on first touch as page does.
func (m *Memory) fillPageCache(c *pageCache, addr uint32) (*[PageWords]isa.Word, *Fault) {
	if f := m.check(addr); f != nil {
		return nil, f
	}
	c.pn, c.page, c.dig = addr>>PageShift, m.page(addr), nil
	if m.digests != nil {
		c.dig = m.digests[c.pn]
	}
	return c.page, nil
}

// SetText installs a predecoded table (asm.Program.Predecoded) for the
// program text at base. Instruction fetch uses an entry only while memory
// still holds the entry's Raw word and decodes the word itself otherwise,
// so stores over text, Poke, crash reverts and Restore need not touch the
// table. A memory holds at most one table; installing one replaces it.
func (m *Memory) SetText(base uint32, text []isa.Predecoded) {
	m.textBase, m.text = base, text
}

// fetch reads the instruction word at pc with LoadWord's faults, through
// the fetch page cache. It also returns the word's predecoded entry when
// the installed text covers pc and still holds that word, else nil.
func (m *Memory) fetch(pc uint32) (isa.Word, *isa.Predecoded, *Fault) {
	// cachedPage's hit test, repeated here so that the common fetch
	// makes no call (cachedPage is too large to inline).
	c := &m.fetchCache
	p := c.page
	if p == nil || pc>>PageShift != c.pn || pc&3 != 0 {
		var f *Fault
		if p, f = m.fillPageCache(c, pc); f != nil {
			return 0, nil, f
		}
	}
	w := p[pc>>2&(PageWords-1)]
	if i := (pc - m.textBase) >> 2; i < uint32(len(m.text)) && m.text[i].Raw == w {
		return w, &m.text[i], nil
	}
	return w, nil, nil
}

// LoadWord reads the word at addr.
func (m *Memory) LoadWord(addr uint32) (isa.Word, *Fault) {
	p, f := m.cachedPage(&m.dataCache, addr)
	if f != nil {
		return 0, f
	}
	return p[addr>>2&(PageWords-1)], nil
}

// StoreWord writes the word at addr.
func (m *Memory) StoreWord(addr uint32, v isa.Word) *Fault {
	p, f := m.cachedPage(&m.dataCache, addr)
	if f != nil {
		return f
	}
	if m.persist {
		m.shadow(p, addr)
	}
	if d := m.dataCache.dig; d != nil {
		d.valid = false
	}
	i := addr >> 2 & (PageWords - 1)
	old := p[i]
	p[i] = v
	for _, fn := range m.watchers[addr] {
		fn(old, v)
	}
	return nil
}

// Watch registers fn to observe every committed store to the word at addr
// (guest sw and interlocked instructions; Poke bypasses it). Watchpoints
// let a harness validate per-word protocol invariants — e.g. that a lock
// word only ever transitions legally — as the machine runs. They are
// harness furniture: snapshots neither capture nor restore them.
func (m *Memory) Watch(addr uint32, fn func(old, new isa.Word)) {
	if m.watchers == nil {
		m.watchers = make(map[uint32][]func(old, new isa.Word))
	}
	m.watchers[addr] = append(m.watchers[addr], fn)
}

// Peek reads a word ignoring presence bits (for debuggers and tests).
func (m *Memory) Peek(addr uint32) isa.Word {
	return m.page(addr)[addr>>2&(PageWords-1)]
}

// Poke writes a word ignoring presence bits. It writes through to both
// persistence tiers: harness writes (program loading, test setup) are
// durable by construction, not subject to the flush/fence discipline.
func (m *Memory) Poke(addr uint32, v isa.Word) {
	m.page(addr)[addr>>2&(PageWords-1)] = v
	m.invalidateDigest(addr >> PageShift)
	if i, ok := m.findLine(addr >> LineShift); ok {
		m.dirty[i].img[addr>>2&(LineWords-1)] = v
	}
}

// LoadProgramWords copies words into memory starting at base, as a Poke
// of each word would: ignoring presence bits and writing through to both
// persistence tiers. It copies a page at a time and patches each dirty
// line's NVM image once, so a program load costs one page lookup per
// page, not two map lookups per word.
func (m *Memory) LoadProgramWords(base uint32, words []isa.Word) {
	base &^= 3 // Poke drops the low address bits too
	if room := (1<<32 - uint64(base)) / 4; uint64(len(words)) > room {
		// The load wraps past the top of the address space, as Poke's
		// address arithmetic does.
		m.LoadProgramWords(base, words[:room])
		m.LoadProgramWords(0, words[room:])
		return
	}
	for addr, rest := base, words; len(rest) > 0; {
		n := copy(m.page(addr)[addr>>2&(PageWords-1):], rest)
		m.invalidateDigest(addr >> PageShift)
		addr += uint32(n) * 4
		rest = rest[n:]
	}
	if len(words) == 0 {
		return
	}
	last := base + uint32(len(words)-1)*4
	for i, _ := m.findLine(base >> LineShift); i < len(m.dirty) && m.dirty[i].ln <= last>>LineShift; i++ {
		d := &m.dirty[i]
		lo := max(d.ln<<LineShift, base)
		hi := min(d.ln<<LineShift+LineBytes-4, last)
		copy(d.img[lo>>2&(LineWords-1):], words[(lo-base)/4:(hi-base)/4+1])
	}
}

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

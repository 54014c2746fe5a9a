package vmach

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"repro/internal/isa"
)

// State digests. The model checker hashes every state it pauses in, and
// most of a state is memory the last few steps never touched. So Digest
// keeps a sha256 digest per page, computed the first time the page is
// hashed and reused until a write to the page marks it stale: StoreWord
// (through the data page cache, which carries the page's entry), Poke,
// and the reverts of Crash. Restore
// drops the whole cache. A hash then costs O(pages written since the last
// one), not a copy and encoding of the whole memory.
//
// The entries live beside the pages, not in them, so a page stays one
// 4 KiB allocation; a memory that is never hashed has no entries at all,
// and its stores pay one nil check. Digest assembles the page digests
// and the rest of the state in scratch buffers the memory keeps, so a
// warm Digest allocates nothing.

// pageDigest is the cached digest of one page.
type pageDigest struct {
	pn    uint32
	page  *[PageWords]isa.Word
	valid bool
	sum   [sha256.Size]byte
}

// Digest returns a digest of the memory's contents: every page's words,
// the not-present pages, and the persistence tier (whether it is
// enabled, the NVM image of every dirty line, the pending write-backs).
// Two memories have equal digests exactly when their Captures are equal
// up to PageFaults, an accounting counter the digest leaves out.
func (m *Memory) Digest() [sha256.Size]byte {
	if len(m.digestOrder) != len(m.pages) {
		m.indexDigests()
	}
	le := binary.LittleEndian
	b := le.AppendUint32(m.digestBuf[:0], uint32(len(m.digestOrder)))
	for _, d := range m.digestOrder {
		if !d.valid {
			d.sum, d.valid = digestPage(d.page), true
		}
		b = le.AppendUint32(b, d.pn)
		b = append(b, d.sum[:]...)
	}
	keys := SortedKeys(m.digestKeys[:0], m.notPresent)
	b = appendU32s(b, keys)
	if m.persist {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = le.AppendUint32(b, uint32(len(m.dirty)))
	for i := range m.dirty {
		d := &m.dirty[i]
		b = le.AppendUint32(b, d.ln)
		for _, w := range d.img {
			b = le.AppendUint32(b, uint32(w))
		}
	}
	keys = m.appendPending(keys[:0])
	b = appendU32s(b, keys)
	m.digestBuf, m.digestKeys = b, keys
	return sha256.Sum256(b)
}

// appendU32s appends a length-prefixed list of words.
func appendU32s(b []byte, vs []uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// indexDigests gives every page without a digest entry a stale one and
// keeps digestOrder sorted. Between Restores pages are only ever added,
// so Digest calls it exactly when the page count has grown.
func (m *Memory) indexDigests() {
	if m.digests == nil {
		m.digests = make(map[uint32]*pageDigest, len(m.pages))
	}
	for pn, p := range m.pages {
		if m.digests[pn] == nil {
			d := &pageDigest{pn: pn, page: p}
			m.digests[pn] = d
			m.digestOrder = append(m.digestOrder, d)
		}
	}
	slices.SortFunc(m.digestOrder, func(a, b *pageDigest) int { return cmp.Compare(a.pn, b.pn) })
	// The cached data page may be one that just got its entry.
	if c := &m.dataCache; c.page != nil {
		c.dig = m.digests[c.pn]
	}
}

// invalidateDigest marks page pn's digest stale after a write to it.
func (m *Memory) invalidateDigest(pn uint32) {
	if d := m.digests[pn]; d != nil {
		d.valid = false
	}
}

func digestPage(p *[PageWords]isa.Word) [sha256.Size]byte {
	var buf [PageSize]byte
	for i, w := range p {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(w))
	}
	return sha256.Sum256(buf[:])
}

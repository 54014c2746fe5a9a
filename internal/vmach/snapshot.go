package vmach

import (
	"encoding/binary"

	"repro/internal/isa"
)

// PageImage is one captured memory page.
type PageImage struct {
	PN    uint32 // page number (addr >> PageShift)
	Words [PageWords]isa.Word
}

// LineImage is the NVM image of one 64-byte line whose volatile contents
// differ from it.
type LineImage struct {
	LN    uint32 // line number (addr >> LineShift)
	Words [LineWords]isa.Word
}

// MemoryImage is a deterministic value snapshot of a Memory: pages,
// not-present page numbers, and the persistence tier (NVM line images and
// pending write-backs) are sorted, so two captures of identical memories
// are deeply equal (and encode to identical bytes). Watchpoints are
// harness state and are not part of the image.
type MemoryImage struct {
	Pages      []PageImage
	NotPresent []uint32
	PageFaults uint64

	// Two-tier persistence state. Persist records whether the model is
	// enabled; NVLines and PendingLines mirror Memory.nvLines/pending.
	// All empty on fully persistent (legacy) memories — and in every
	// pre-PR-6 (version 2) checkpoint, which decodes to exactly that.
	Persist      bool
	NVLines      []LineImage
	PendingLines []uint32
}

// Capture snapshots the memory.
func (m *Memory) Capture() *MemoryImage {
	img := &MemoryImage{PageFaults: m.PageFaults}
	for _, pn := range sortedKeys(make([]uint32, 0, len(m.pages)), m.pages) {
		img.Pages = append(img.Pages, PageImage{PN: pn, Words: *m.pages[pn]})
	}
	img.NotPresent = sortedKeys(nil, m.notPresent)
	img.Persist = m.persist
	for _, ln := range m.DirtyLines() {
		img.NVLines = append(img.NVLines, LineImage{LN: ln, Words: *m.nvLines[ln]})
	}
	img.PendingLines = m.PendingLines()
	return img
}

// Restore replaces the memory's contents with the image's. Watchpoints
// registered on the memory, and its installed text table, survive a
// restore.
func (m *Memory) Restore(img *MemoryImage) {
	m.flushPageCaches()
	m.digests, m.digestOrder = nil, nil
	m.pages = make(map[uint32]*[PageWords]isa.Word, len(img.Pages))
	for i := range img.Pages {
		p := img.Pages[i].Words // copy: the image stays pristine
		m.pages[img.Pages[i].PN] = &p
	}
	m.notPresent = make(map[uint32]bool, len(img.NotPresent))
	for _, pn := range img.NotPresent {
		m.notPresent[pn] = true
	}
	m.PageFaults = img.PageFaults
	m.persist = img.Persist
	m.nvLines, m.pending = nil, nil
	if img.Persist {
		m.nvLines = make(map[uint32]*[LineWords]isa.Word, len(img.NVLines))
		m.pending = make(map[uint32]bool, len(img.PendingLines))
		for i := range img.NVLines {
			w := img.NVLines[i].Words // copy: the image stays pristine
			m.nvLines[img.NVLines[i].LN] = &w
		}
		for _, ln := range img.PendingLines {
			m.pending[ln] = true
		}
	}
}

// MachineImage is a value snapshot of a Machine: execution statistics, the
// write-buffer drain queue, and memory. The profile is identified by name
// only — the restorer must supply the same profile, which Restore checks.
type MachineImage struct {
	ProfileName string
	Stats       Stats
	WB          []uint64
	// ll/sc reservation state (per-CPU, so per-machine).
	ResValid bool
	ResAddr  uint32
	Mem      *MemoryImage
}

// Capture snapshots the machine.
func (m *Machine) Capture() *MachineImage {
	img := m.CaptureWithoutMemory()
	img.Mem = m.Mem.Capture()
	return img
}

// CaptureWithoutMemory snapshots everything Capture does but the memory,
// whose image it leaves empty: for a memory several machines share.
func (m *Machine) CaptureWithoutMemory() *MachineImage {
	return &MachineImage{
		ProfileName: m.Profile.Name,
		Stats:       m.Stats,
		WB:          append([]uint64(nil), m.wb...),
		ResValid:    m.resValid,
		ResAddr:     m.resAddr,
		Mem:         &MemoryImage{},
	}
}

// AppendStateKey appends to b a key of the machine's behavioral state:
// the profile name, the write buffer and the ll/sc reservation, the
// fields a MachineImage holds besides Stats, which is accounting, and
// Mem, which is hashed through Memory.Digest. The key is self-delimiting,
// and two machines append equal keys exactly when their images agree on
// those fields.
func (m *Machine) AppendStateKey(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(m.Profile.Name)))
	b = append(b, m.Profile.Name...)
	b = le.AppendUint32(b, uint32(len(m.wb)))
	for _, w := range m.wb {
		b = le.AppendUint64(b, w)
	}
	if m.resValid {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return le.AppendUint32(b, m.resAddr)
}

// Restore replaces the machine's state with the image's. The machine must
// have been created with the same profile the image was captured under;
// a cost model mismatch would silently diverge the replay, so it is
// reported as an error instead.
func (m *Machine) Restore(img *MachineImage) error {
	if img.ProfileName != m.Profile.Name {
		return &RestoreError{Want: img.ProfileName, Got: m.Profile.Name}
	}
	m.Stats = img.Stats
	m.wb = append([]uint64(nil), img.WB...)
	m.resValid = img.ResValid
	m.resAddr = img.ResAddr
	m.Mem.Restore(img.Mem)
	return nil
}

// RestoreError reports a snapshot restored onto a mismatched machine.
type RestoreError struct {
	Want, Got string
}

func (e *RestoreError) Error() string {
	return "vmach: snapshot captured on profile " + e.Want + ", restored onto " + e.Got
}

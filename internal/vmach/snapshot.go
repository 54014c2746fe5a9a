package vmach

import "repro/internal/isa"

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
	// enabled; NVLines holds every dirty line's NVM image and
	// PendingLines the lines among them with an unfenced write-back,
	// both strictly increasing. All empty on fully persistent memories.
	Persist      bool
	NVLines      []LineImage
	PendingLines []uint32
}

// Capture snapshots the memory.
func (m *Memory) Capture() *MemoryImage {
	img := &MemoryImage{PageFaults: m.PageFaults}
	for _, pn := range SortedKeys(make([]uint32, 0, len(m.pages)), m.pages) {
		img.Pages = append(img.Pages, PageImage{PN: pn, Words: *m.pages[pn]})
	}
	img.NotPresent = SortedKeys(nil, m.notPresent)
	img.Persist = m.persist
	for i := range m.dirty {
		img.NVLines = append(img.NVLines, LineImage{LN: m.dirty[i].ln, Words: m.dirty[i].img})
	}
	img.PendingLines = m.PendingLines()
	return img
}

// Restore replaces the memory's contents with the image's. Watchpoints
// registered on the memory, and its installed text table, survive a
// restore. The image's persistence tier must be one Capture could
// produce (MemoryImage.Walk rejects any other when decoding); Restore
// panics on one that is not.
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
	m.dirty = m.dirty[:0]
	if img.Persist {
		for i := range img.NVLines {
			if i > 0 && img.NVLines[i].LN <= img.NVLines[i-1].LN {
				panic("vmach: Restore: NVLines not strictly increasing")
			}
			m.dirty = append(m.dirty, dirtyLine{ln: img.NVLines[i].LN, img: img.NVLines[i].Words})
		}
		for _, ln := range img.PendingLines {
			i, ok := m.findLine(ln)
			if !ok {
				panic("vmach: Restore: pending line without an NVM image")
			}
			m.dirty[i].pending = true
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
	img := &MachineImage{}
	m.CaptureInto(img)
	img.Mem = m.Mem.Capture()
	return img
}

// CaptureInto snapshots everything Capture does but the memory into img,
// reusing its write-buffer slice: for a memory several machines share,
// and for scratch images recaptured without allocating.
func (m *Machine) CaptureInto(img *MachineImage) {
	img.ProfileName = m.Profile.Name
	img.Stats = m.Stats
	img.WB = append(img.WB[:0], m.wb...)
	img.ResValid, img.ResAddr = m.resValid, m.resAddr
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

// Walk is the machine image's field walk. Stats is accounting, and Mem
// is walked by MemoryImage.Walk.
func (m *MachineImage) Walk(c *Codec) {
	c.Str(&m.ProfileName)
	if c.Accounting() {
		m.Stats.walk(c)
	}
	for i := range Items(c, &m.WB, 8) {
		c.U64(&m.WB[i])
	}
	c.Bool(&m.ResValid)
	c.U32(&m.ResAddr)
	if m.Mem == nil {
		m.Mem = &MemoryImage{}
	}
	m.Mem.Walk(c)
}

// Walk is the memory image's field walk. The key leaves the whole image
// out: the model checker hashes live memory through Memory.Digest.
// Decoding, it rejects a persistence tier Capture cannot produce: lines
// on a memory without the model, NVM lines or pending lines out of
// strictly increasing order, or a pending line with no NVM image.
func (img *MemoryImage) Walk(c *Codec) {
	if c.mode == keying {
		return
	}
	for i := range Items(c, &img.Pages, 4+4*PageWords) {
		c.U32(&img.Pages[i].PN)
		c.Words(img.Pages[i].Words[:])
	}
	Items(c, &img.NotPresent, 4)
	c.Words(img.NotPresent)
	c.U64(&img.PageFaults)
	c.Bool(&img.Persist)
	for i := range Items(c, &img.NVLines, 4+4*LineWords) {
		c.U32(&img.NVLines[i].LN)
		c.Words(img.NVLines[i].Words[:])
		if c.Decoding() && i > 0 && img.NVLines[i].LN <= img.NVLines[i-1].LN {
			c.Fail("NVM lines not strictly increasing")
		}
	}
	Items(c, &img.PendingLines, 4)
	c.Words(img.PendingLines)
	if c.Decoding() {
		img.checkTier(c)
	}
}

// checkTier fails c unless the decoded persistence tier is one Capture
// could have produced.
func (img *MemoryImage) checkTier(c *Codec) {
	if !img.Persist && (len(img.NVLines) > 0 || len(img.PendingLines) > 0) {
		c.Fail("persistence lines on a memory without the model")
	}
	j := 0 // the first NVM line not below the pending line
	for i, ln := range img.PendingLines {
		if i > 0 && ln <= img.PendingLines[i-1] {
			c.Fail("pending lines not strictly increasing")
			return
		}
		for j < len(img.NVLines) && img.NVLines[j].LN < ln {
			j++
		}
		if j == len(img.NVLines) || img.NVLines[j].LN != ln {
			c.Fail("pending line %#x has no NVM image", ln)
			return
		}
	}
}

// Walk is the context's field walk.
func (ctx *Context) Walk(c *Codec) {
	c.Words(ctx.Regs[:])
	c.U32(&ctx.PC)
	c.Bool(&ctx.LockActive)
	c.U32(&ctx.LockPC)
	budget := uint64(ctx.LockBudget)
	if c.U64(&budget); c.Decoding() {
		ctx.LockBudget = int(budget)
	}
}

// walk is the machine stats' field walk, in declaration order;
// TestCheckpointCoversAllStats catches a field it misses.
func (s *Stats) walk(c *Codec) {
	for _, v := range []*uint64{
		&s.Instructions, &s.Cycles, &s.Loads, &s.Stores, &s.Interlocked,
		&s.LockBStarts, &s.LockBExpired, &s.WriteStalls, &s.WriteStallCycles,
		&s.RMRs, &s.CoherenceCycles, &s.Flushes, &s.Fences, &s.LinesPersisted,
		&s.PersistCycles,
	} {
		c.U64(v)
	}
}

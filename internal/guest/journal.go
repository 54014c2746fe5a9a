package guest

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// journalMagic seeds the guest journal record checksum.
const journalMagic = 0x5EED1E55

// journalCksum is the host-side mirror of the guest's jck routine:
//
//	ck = seq ^ rot1(xa) ^ rot2(xb) ^ journalMagic
//
// The positional rotates matter. A torn crash during the log-line flush
// persists a memory-order prefix of the line's words, splicing the new
// record's head onto the old record's tail. Successive records differ in
// each word by v^(v+1) — an odd value for the small counters this program
// keeps — and rot1/rot2 shift those odd deltas onto distinct bit
// positions, so no spliced record's stored checksum can equal the
// checksum recomputed over the spliced words: bit 0 of the difference
// survives every splice point. A plain xor of the words would not have
// that property (the deltas could cancel).
func journalCksum(seq, xa, xb isa.Word) isa.Word {
	rot := func(v isa.Word, k uint) isa.Word { return v<<k | v>>(32-k) }
	return seq ^ rot(xa, 1) ^ rot(xb, 2) ^ journalMagic
}

// JournalRecord is the guest journal's durable state as a crash leaves
// it: the log record at symbol jlog and the applied sequence at symbol
// applied that recovery judges it against.
type JournalRecord struct {
	Seq, XA, XB, Ck isa.Word
	Applied         isa.Word
}

// ReadJournal reads a journal program's record through peek: a memory's
// Peek, or its NVPeek for the durable tier alone.
func ReadJournal(peek func(addr uint32) isa.Word, p *asm.Program) JournalRecord {
	log := p.MustSymbol("jlog")
	return JournalRecord{
		Seq: peek(log), XA: peek(log + 4), XB: peek(log + 8), Ck: peek(log + 12),
		Applied: peek(p.MustSymbol("applied")),
	}
}

// Whole reports whether the record's checksum matches its words; a torn
// or never-flushed record fails (see journalCksum for why splices can't
// collide).
func (r JournalRecord) Whole() bool { return journalCksum(r.Seq, r.XA, r.XB) == r.Ck }

// Commits is the guest's recovery rule: the record commits iff it is
// whole and seq == applied+1, i.e. its transaction was in flight.
func (r JournalRecord) Commits() bool { return r.Whole() && r.Seq == r.Applied+1 }

// Recover returns what va and vb hold once the guest's recovery has run
// over va=a, vb=b: a committing record re-stores its values (redo: the
// new ones roll forward; undo: the old ones roll back), anything else
// leaves the words alone.
func (r JournalRecord) Recover(a, b isa.Word) (isa.Word, isa.Word) {
	if r.Commits() {
		return r.XA, r.XB
	}
	return a, b
}

// JournalSource selects a journal program by mode name, reporting false
// for an unknown one: "redo" and "undo" are JournalProgram's
// disciplines, and "nofence" is the planted bug — the redo program with
// the log line's flush+fence omitted, so a transaction's in-place
// updates are initiated while its record still sits in the volatile
// tier. The record's line is never even flushed, so NVM never holds it:
// a torn crash that persists va's write-back but not vb's leaves the two
// words unequal with nothing to repair them from — the violation the
// mcheck "journal-nofence" entry must catch and shrink to a single
// decision. (Clean crashes stay consistent: both write-backs share one
// fence, so they die or survive together. Only torn-write crashes expose
// this bug, which is exactly why the torn fault exists.)
func JournalSource(mode string, target int) (string, bool) {
	switch mode {
	case "redo", "undo":
		return JournalProgram(mode, target), true
	case "nofence":
		return journalProgram(target, false, false), true
	}
	return "", false
}

// JournalProgram builds a single-threaded crash-consistent transaction
// loop for a machine with the NVRAM persistence model enabled: two NVM
// words, va and vb, are incremented together inside a logged transaction
// until both reach target, with the invariant that after recovery NVM
// always shows va == vb. mode selects the logging discipline:
//
//	"redo"  write-ahead: stage the record holding the NEW values in the
//	        log line, flush, fence — that fence IS the commit point —
//	        then apply both words, flush, fence. The applied-sequence
//	        bump is flushed but unfenced; its write-back rides the next
//	        transaction's commit fence. Recovery rolls an in-flight
//	        record FORWARD and claims its sequence.
//
//	"undo"  force: stage the record holding the OLD values, flush,
//	        fence; apply, flush, fence; bump the sequence, flush, fence.
//	        The commit point is the LAST fence. Recovery rolls an
//	        in-flight record BACK and leaves the sequence alone.
//
// The record is four words on one 64-byte line — seq, xa, xb, checksum —
// with the checksum in the highest word: a torn crash persists a prefix
// of the line, so a record with a valid checksum is a whole record (see
// journalCksum for why splices can't collide). va and vb live on lines of
// their own, which is what makes the missing-fence variant detectable: a
// torn crash between their write-backs can persist one without the
// other, and only a durable log record can repair that.
//
// Recovery runs in main before the transaction loop, so the same binary
// serves as first boot and every reboot. Exhaustive crash placement over
// the flush/fence boundaries — including crashes during recovery itself,
// which is a sequence of constant stores and therefore idempotent — is
// the mcheck "journal" model family.
func JournalProgram(mode string, target int) string {
	switch mode {
	case "redo":
		return journalProgram(target, false, true)
	case "undo":
		return journalProgram(target, true, true)
	}
	panic(fmt.Sprintf("guest: unknown journal mode %q", mode))
}

func journalProgram(target int, undo, wellFenced bool) string {
	logPersist := "\tflush 0(s1)\n\tfence                   # COMMIT (redo): record durable before any overwrite\n"
	if undo {
		logPersist = "\tflush 0(s1)\n\tfence                   # undo: old values safe before any overwrite\n"
	} else if !wellFenced {
		logPersist = "" // planted bug: the record never reaches NVM
	}
	// The record carries the values recovery will re-store: news for
	// redo (roll forward), olds for undo (roll back).
	logA, logB := "t8", "t9"
	if undo {
		logA, logB = "t0", "t7"
	}
	claim := ""
	if !undo {
		// Redo recovery completes the transaction, so it claims the
		// sequence; undo recovery aborts it, so the sequence stays.
		claim = `	sw   t1, 0(s2)          # claim the sequence: the transaction completed
	flush 0(s2)
	fence
`
	}
	commitFence := ""
	if undo {
		commitFence = "\tfence                   # COMMIT (undo): data durable, now the mark\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, `	.text
main:
	la   s1, jlog
	la   s2, applied
	la   s3, va
	la   s4, vb
	li   s5, %d             # target
	li   s6, %#x            # checksum magic
	lw   t1, 0(s1)          # --- recovery, from NVM contents alone ---
	lw   t2, 4(s1)
	lw   t3, 8(s1)
	jal  jck
	lw   t5, 12(s1)
	bne  t4, t5, boot       # bad checksum: torn or blank record, data untouched
	lw   t6, 0(s2)
	addi t6, t6, 1
	bne  t1, t6, boot       # seq != applied+1: nothing in flight
	sw   t2, 0(s3)          # repair both words from the record (redo: news
	sw   t3, 0(s4)          # roll forward; undo: olds roll back)
	flush 0(s3)
	flush 0(s4)
	fence
%sboot:
loop:
	lw   t0, 0(s3)          # a
	beq  t0, s5, done
	lw   t7, 0(s4)          # b
	lw   t1, 0(s2)
	addi t1, t1, 1          # seq = applied + 1
	addi t8, t0, 1          # a'
	addi t9, t7, 1          # b'
	move t2, %s             # record values (redo: new, undo: old)
	move t3, %s
	sw   t1, 0(s1)          # stage the record; checksum word last
	sw   t2, 4(s1)
	sw   t3, 8(s1)
	jal  jck
	sw   t4, 12(s1)
%s	sw   t8, 0(s3)          # apply in place
	sw   t9, 0(s4)
	flush 0(s3)
	flush 0(s4)
	fence                   # both words durable together, never split
	sw   t1, 0(s2)          # applied = seq; redo leaves the write-back
	flush 0(s2)             # pending for the next commit fence to drain
%s	b    loop
done:
	li   v0, 0              # SysExit
	move a0, zero
	syscall

jck:                            # t4 = t1 ^ rot1(t2) ^ rot2(t3) ^ magic
	sll  t4, t2, 1
	srl  t5, t2, 31
	or   t4, t4, t5
	sll  t5, t3, 2
	srl  t6, t3, 30
	or   t5, t5, t6
	xor  t4, t4, t5
	xor  t4, t4, t1
	xor  t4, t4, s6
	jr   ra

	.data
applied: .word 0                # one variable per 64-byte persistence line;
	.space 60               # the log record is the only multi-word line
jlog:	.word 0                 # seq
	.word 0                 # xa
	.word 0                 # xb
	.word 0                 # checksum (highest word: torn prefixes drop it)
	.space 48
va:	.word 0
	.space 60
vb:	.word 0
`, target, journalMagic, claim, logA, logB, logPersist, commitFence)
	return b.String()
}

// Package journal is a crash-consistent write-ahead log on the NVRAM
// persistence model: checksummed, sequence-numbered records are
// flushed and fenced BEFORE the in-place update they describe, so the
// durable log always runs ahead of the volatile state it shadows and a
// mount can rebuild that state from NVM contents alone.
//
// The write-ahead discipline per appended record:
//
//	store the record's words into the log tail   (volatile)
//	flush each word                              (initiate write-back)
//	fence                                        (commit point)
//	apply the in-place update                    (caller, volatile)
//
// A crash before the fence loses the record cleanly — unfenced words
// revert to the NVM zeros, and the operation never happened. A TORN crash
// (chaos.CrashTorn) persists a flush-order prefix of the record's
// words; the checksum is the last word flushed, so a torn record can
// never validate, and Mount detects it and discards it. Records are
// glued by strict sequence continuity: record n+1 is only accepted
// directly after record n, so a stale record surviving past a zeroed gap
// can never be replayed out of order.
//
// Mount's cost is bounded by the log, not the arena. Append is the log's
// only writer, it stores and flushes the header first, and every crash
// kind keeps a prefix of the append it interrupts, so the debris past the
// valid prefix is at most one record whose header, if it survived,
// states its extent. Mount zeroes exactly that extent, back to front and
// the header last, then flushes and fences: a crash inside the zeroing
// leaves the header standing, and the next mount finishes the job. The
// invariant this rests on — after a mount, every word past the head is
// zero in both tiers — is what CheckTail audits.
package journal

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/uniproc"
)

// Record kinds. The zero kind is invalid so a zeroed arena never decodes.
type Kind uint8

const (
	OpMkdir Kind = iota + 1
	OpCreate
	OpWriteFile
	OpAppend
	OpRemove
	// OpEffect is an application-defined exactly-once effect record: the
	// path names the client, the data carries its request sequence
	// number. The resilient server (internal/uxserver) logs one before
	// applying each in-place effect, and its replay deduplicates by
	// per-client applied sequence — the protocol that makes client
	// retries across a machine crash idempotent.
	OpEffect
	numKinds
)

func (k Kind) String() string {
	switch k {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "create"
	case OpWriteFile:
		return "writefile"
	case OpAppend:
		return "append"
	case OpRemove:
		return "remove"
	case OpEffect:
		return "effect"
	}
	return "?"
}

// Record is one logged operation.
type Record struct {
	Seq  uint32
	Kind Kind
	Path string
	Data []byte
}

// Wire format, in 32-bit words:
//
//	w0           magic<<24 | kind<<16 | nwords     (nwords = payload words)
//	w1           seq
//	w2..         payload: pathLen, path bytes packed LE, dataLen, data bytes
//	w2+nwords    checksum over w0..w1+nwords       (flushed last)
const (
	magic      = 0xA5
	headWords  = 2 // header + seq
	maxPayload = 0xFFFF
)

// Errors.
var (
	ErrFull     = errors.New("journal: log full")
	ErrTooLarge = errors.New("journal: record too large")
	ErrCorrupt  = errors.New("journal: corrupt record")
	// ErrDirtyTail is CheckTail's finding: a nonzero word past the head.
	ErrDirtyTail = errors.New("journal: nonzero word past the log head")
)

// Options configures a log.
type Options struct {
	// SkipFence is a deliberately planted protocol bug for the model
	// checker to catch: Append initiates the write-backs but omits the
	// persist barrier, so the log reports an operation committed while its
	// record is still in the volatile tier. A clean crash before the next
	// unrelated fence silently loses a completed operation; a torn crash
	// can additionally leave a partial record. Never set outside
	// verification.
	SkipFence bool
	// ZeroForward is a second planted bug: Mount zeroes the torn tail
	// front to back, header first, so a crash inside the zeroing can
	// leave a zero header over surviving debris that no later mount
	// reads. CheckTail must catch it. Never set outside verification.
	ZeroForward bool
	// Metrics, when non-nil, receives the journal's counters:
	// journal_records_written, journal_records_replayed,
	// journal_torn_words_discarded.
	Metrics *obs.Registry
}

// Log is a WAL over a caller-provided NVM arena. The arena words are the
// durable tier (they must live on a processor with persistence enabled
// for the crash semantics to mean anything); head and seq are volatile
// and rebuilt by Mount.
type Log struct {
	arena []uniproc.Word
	head  int    // next free word
	seq   uint32 // last durable sequence number
	opt   Options

	written, replayed, torn *obs.Counter
}

// Mount scans the arena — NVM contents only — validating records by
// magic, checksum, and strict sequence continuity. The first record that
// fails ends the valid prefix: it is debris from the one append a crash
// interrupted, or a zero header where the log ends. Mount zeroes the
// extent that header states (flushed and fenced) before the space is
// reused, and reads nothing past it, so its cost is the log's, not the
// arena's. It returns the mounted log, positioned to append, and the
// replayed records in order.
func Mount(e *uniproc.Env, arena []uniproc.Word, opt Options) (*Log, []Record, error) {
	l := &Log{arena: arena, opt: opt}
	if reg := opt.Metrics; reg != nil {
		l.written = reg.Counter("journal_records_written", "records appended and fenced")
		l.replayed = reg.Counter("journal_records_replayed", "valid records decoded at mount")
		l.torn = reg.Counter("journal_torn_words_discarded", "torn-tail words zeroed at mount")
	}
	var recs []Record
	for {
		rec, n, ok := l.readAt(e, l.head)
		if !ok || rec.Seq != l.seq+1 {
			// Debris of at most one interrupted append (a stale record
			// is not ours either). Zeroing it must itself be durable
			// before the space is reused, or a second crash could
			// resurrect half-overwritten debris.
			if z := l.zeroTail(e, n); z > 0 && l.torn != nil {
				l.torn.Add(uint64(z))
			}
			return l, recs, nil
		}
		recs = append(recs, rec)
		l.seq = rec.Seq
		l.head += n
		if l.replayed != nil {
			l.replayed.Inc()
		}
	}
}

// zeroTail zeroes the nonzero words of [head, head+extent), the extent
// readAt just loaded (so it reads them again without a charge), and
// returns how many it zeroed. It zeroes back to front and the header
// last, so a crash part way leaves the header, and with it the extent,
// for the next mount; the flush/fence runs only when something was
// zeroed. Options.ZeroForward plants the opposite order.
func (l *Log) zeroTail(e *uniproc.Env, extent int) int {
	n := 0
	zero := func(i int) {
		if l.arena[i] == 0 {
			return
		}
		e.Store(&l.arena[i], 0)
		e.Flush(&l.arena[i])
		n++
	}
	if l.opt.ZeroForward {
		for i := l.head; i < l.head+extent; i++ {
			zero(i)
		}
	} else {
		for i := l.head + extent - 1; i >= l.head; i-- {
			zero(i)
		}
	}
	if n > 0 {
		e.Fence()
	}
	return n
}

// CheckTail audits the invariant a bounded mount rests on: every arena
// word past the log's head is zero in both tiers of p, the processor the
// log's arena lives on. Call it after Mount (or any append) returns. It
// reads the volatile words as a plain slice and the NVM tier only
// through p's shadowed words, and charges nothing: it is a harness
// check, not a guest operation.
func (l *Log) CheckTail(p *uniproc.Processor) error {
	tail := l.arena[l.head:]
	if i := firstNonzero(tail); i >= 0 {
		return fmt.Errorf("%w: word %d holds %#x (head %d)", ErrDirtyTail, l.head+i, uint32(tail[i]), l.head)
	}
	if i, nv := p.NVDiverged(tail); i >= 0 {
		return fmt.Errorf("%w: word %d's NVM image holds %#x (head %d)", ErrDirtyTail, l.head+i, uint32(nv), l.head)
	}
	return nil
}

// zeroBlock is what firstNonzero compares whole blocks of words against.
var zeroBlock [256]uniproc.Word

// firstNonzero returns the index of the first nonzero word of ws, or -1.
// Comparing a block as an array is one memequal call, about four times
// faster than testing its words one by one.
func firstNonzero(ws []uniproc.Word) int {
	i := 0
	for ; i+len(zeroBlock) <= len(ws) && *(*[len(zeroBlock)]uniproc.Word)(ws[i:]) == zeroBlock; i += len(zeroBlock) {
	}
	for ; i < len(ws); i++ {
		if ws[i] != 0 {
			return i
		}
	}
	return -1
}

// Append encodes rec (Seq is assigned by the log), makes it durable, and
// returns the assigned sequence number. The caller applies the in-place
// update only after Append returns: write-ahead means the log commits
// first.
func (l *Log) Append(e *uniproc.Env, kind Kind, path string, data []byte) (uint32, error) {
	payload := 2 + wordsFor(len(path)) + wordsFor(len(data))
	if payload > maxPayload {
		return 0, fmt.Errorf("%w: %d payload words", ErrTooLarge, payload)
	}
	total := headWords + payload + 1
	if l.head+total > len(l.arena) {
		return 0, fmt.Errorf("%w: %d words free, record needs %d", ErrFull, len(l.arena)-l.head, total)
	}
	seq := l.seq + 1
	w := l.head
	put := func(v uint32) {
		e.Store(&l.arena[w], uniproc.Word(v))
		w++
	}
	put(magic<<24 | uint32(kind)<<16 | uint32(payload))
	put(seq)
	put(uint32(len(path)))
	putBytes(e, l.arena, &w, []byte(path))
	put(uint32(len(data)))
	putBytes(e, l.arena, &w, data)
	e.ChargeALU(total)
	put(uint32(cksum(l.arena[l.head : l.head+total-1])))
	// The checksum is stored, and therefore flushed, last: a torn crash
	// persists a flush-order prefix of these words, so a record with a
	// valid checksum is a whole record.
	for i := l.head; i < l.head+total; i++ {
		e.Flush(&l.arena[i])
	}
	if !l.opt.SkipFence {
		e.Fence()
	}
	l.head += total
	l.seq = seq
	if l.written != nil {
		l.written.Inc()
	}
	return seq, nil
}

// Seq returns the sequence number of the last appended or replayed record.
func (l *Log) Seq() uint32 { return l.seq }

// Free returns how many arena words remain.
func (l *Log) Free() int { return len(l.arena) - l.head }

// readAt loads the record whose header is at word i: the header and,
// when it is nonzero, the extent it states, capped at the arena's end.
// It returns the record, that extent (0 for a zero header, or for i at
// the arena's end), and whether the extent decodes as a valid record.
func (l *Log) readAt(e *uniproc.Env, i int) (Record, int, bool) {
	if i >= len(l.arena) {
		return Record{}, 0, false
	}
	h := uint32(e.Load(&l.arena[i]))
	if h == 0 {
		return Record{}, 0, false
	}
	total := headWords + int(h&0xFFFF) + 1
	extent := min(total, len(l.arena)-i)
	e.ChargeALU(extent)
	for j := i; j < i+extent; j++ {
		e.Load(&l.arena[j]) // the replay read, charged like any load
	}
	if extent < total {
		return Record{}, extent, false // it would run past the arena's end
	}
	rec, ok := l.decode(i, h)
	return rec, extent, ok
}

// decode validates and decodes the record with header h at word i, whose
// words readAt loaded.
func (l *Log) decode(i int, h uint32) (Record, bool) {
	kind := Kind(h >> 16 & 0xFF)
	payload := int(h & 0xFFFF)
	if h>>24 != magic || kind == 0 || kind >= numKinds || payload < 2 {
		return Record{}, false
	}
	total := headWords + payload + 1
	if uint32(l.arena[i+total-1]) != uint32(cksum(l.arena[i:i+total-1])) {
		return Record{}, false
	}
	rec := Record{Seq: uint32(l.arena[i+1]), Kind: kind}
	w := i + headWords
	pathLen := int(l.arena[w])
	w++
	if w+wordsFor(pathLen) >= i+total-1 {
		return Record{}, false // path would overrun the dataLen word
	}
	rec.Path = string(getBytes(l.arena, &w, pathLen))
	dataLen := int(l.arena[w])
	w++
	if payload != 2+wordsFor(pathLen)+wordsFor(dataLen) {
		return Record{}, false
	}
	rec.Data = getBytes(l.arena, &w, dataLen)
	return rec, true
}

// wordsFor returns the words needed to pack n bytes.
func wordsFor(n int) int { return (n + 3) / 4 }

// putBytes packs b little-endian into words at *w, zero-padding the last.
func putBytes(e *uniproc.Env, a []uniproc.Word, w *int, b []byte) {
	for i := 0; i < len(b); i += 4 {
		var v uint32
		for j := 0; j < 4 && i+j < len(b); j++ {
			v |= uint32(b[i+j]) << (8 * j)
		}
		e.Store(&a[*w], uniproc.Word(v))
		*w++
	}
}

// getBytes unpacks n bytes from words at *w.
func getBytes(a []uniproc.Word, w *int, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte(uint32(a[*w+i/4]) >> (8 * (i % 4)))
	}
	*w += wordsFor(n)
	return out
}

// cksum folds the words with a multiplicative mix. A zeroed region hashes
// to a nonzero value, so blank arena never validates against a zero
// checksum word.
func cksum(ws []uniproc.Word) uniproc.Word {
	h := uint32(0x9E3779B9)
	for _, w := range ws {
		h = (h ^ uint32(w)) * 0x85EBCA6B
		h ^= h >> 13
	}
	return uniproc.Word(h)
}

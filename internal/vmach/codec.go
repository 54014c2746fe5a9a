package vmach

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// A Codec runs a state walk: each state struct's one walk method visits
// its fields in wire order, and the mode decides what a visit does.
// An Encoder appends the field, little-endian. A Decoder reads it back
// and keeps the format canonical (explicit lengths, booleans 0 or 1, no
// trailing bytes), so decode then re-encode is bit-identical. A Keyer
// appends it to the model checker's state key, skipping the accounting
// fields a walk visits only when Accounting reports true and the memory
// image, which Memory.Digest hashes. So checkpoint, decoder and key
// cannot drift: the key is the encoding minus header, accounting and
// memory. Codec is concrete, not an interface, so a key walk allocates
// nothing.
type Codec struct {
	mode codecMode
	b    []byte // encode, key: the output; decode: the input
	off  int    // decode: the read offset
	err  error  // decode: the first defect found
	bad  error  // decode: the sentinel every defect wraps
}

type codecMode uint8

const (
	encoding codecMode = iota
	decoding
	keying
)

// Encoder returns a codec that appends an encoding to b.
func Encoder(b []byte) Codec { return Codec{mode: encoding, b: b} }

// Decoder returns a codec that reads data, which the walk must consume
// exactly; each defect it finds wraps bad.
func Decoder(data []byte, bad error) Codec { return Codec{mode: decoding, b: data, bad: bad} }

// Keyer returns a codec that appends a state key to b.
func Keyer(b []byte) Codec { return Codec{mode: keying, b: b} }

// Bytes returns what an Encoder or Keyer has appended.
func (c *Codec) Bytes() []byte { return c.b }

// Err returns the first defect a Decoder found, counting input the walk
// left unread as one.
func (c *Codec) Err() error {
	if c.mode == decoding && c.err == nil && c.off != len(c.b) {
		c.Fail("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// Decoding reports whether the codec reads.
func (c *Codec) Decoding() bool { return c.mode == decoding }

// Accounting reports whether the walk visits accounting fields: the
// counters and bookkeeping that no future transition depends on under
// the model checker's run conditions. Only the key leaves them out.
func (c *Codec) Accounting() bool { return c.mode != keying }

// Fail records a decode defect; only the first one is kept.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", c.bad, fmt.Sprintf(format, args...), c.off)
	}
}

func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.Fail("truncated (want %d more bytes, have %d)", n, len(c.b)-c.off)
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

// U32 walks a 32-bit word.
func (c *Codec) U32(v *uint32) {
	if c.mode != decoding {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if s := c.take(4); s != nil {
		*v = binary.LittleEndian.Uint32(s)
	}
}

// I32 walks a signed 32-bit word, as the uint32 with its bits.
func (c *Codec) I32(v *int32) {
	u := uint32(*v)
	c.U32(&u)
	*v = int32(u)
}

// U64 walks a 64-bit word.
func (c *Codec) U64(v *uint64) {
	if c.mode != decoding {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if s := c.take(8); s != nil {
		*v = binary.LittleEndian.Uint64(s)
	}
}

// Bool walks a boolean as one byte, 0 or 1.
func (c *Codec) Bool(v *bool) {
	if c.mode != decoding {
		var u byte
		if *v {
			u = 1
		}
		c.b = append(c.b, u)
	} else if s := c.take(1); s != nil {
		if s[0] > 1 {
			c.Fail("non-canonical boolean")
		}
		*v = s[0] == 1
	}
}

// Str walks a length-prefixed string.
func (c *Codec) Str(v *string) {
	n := uint32(len(*v))
	c.U32(&n)
	if c.mode != decoding {
		c.b = append(c.b, *v...)
	} else {
		*v = string(c.take(int(n)))
	}
}

// Words walks a fixed-length run of words, such as a page or a register
// file. It sizes the output once for the run, not once a word through
// U32: the state key walks every thread's register file, and there the
// per-word loop is measurably slower.
func (c *Codec) Words(ws []uint32) {
	n := 4 * len(ws)
	if c.mode == decoding {
		if s := c.take(n); s != nil {
			for i := range ws {
				ws[i] = binary.LittleEndian.Uint32(s[4*i:])
			}
		}
		return
	}
	at := len(c.b)
	c.b = slices.Grow(c.b, n)[:at+n]
	for i, w := range ws {
		binary.LittleEndian.PutUint32(c.b[at+4*i:], w)
	}
}

// Magic walks a format header: the magic string and the format version.
// A decoder rejects any other magic or version; the key leaves the header
// out.
func (c *Codec) Magic(magic string, version uint32) {
	switch c.mode {
	case encoding:
		c.b = append(c.b, magic...)
		c.b = binary.LittleEndian.AppendUint32(c.b, version)
	case decoding:
		if m := c.take(len(magic)); c.err == nil && string(m) != magic {
			c.Fail("bad magic")
		}
		v := version
		if c.U32(&v); c.err == nil && v != version {
			c.Fail("unsupported version %d", v)
		}
	}
}

// Sized walks a length-prefixed section: walk must consume exactly the
// section when decoding.
func (c *Codec) Sized(walk func(*Codec)) {
	if c.mode != decoding {
		at := len(c.b)
		c.b = append(c.b, 0, 0, 0, 0)
		walk(c)
		binary.LittleEndian.PutUint32(c.b[at:], uint32(len(c.b)-at-4))
		return
	}
	var n uint32
	if c.U32(&n); c.err == nil && int64(n) > int64(len(c.b)-c.off) {
		c.Fail("section length %d exceeds input", n)
	}
	if c.err != nil {
		return
	}
	whole := c.b
	c.b = c.b[:c.off+int(n)]
	walk(c)
	if c.err == nil && c.off != len(c.b) {
		c.Fail("%d bytes left in section", len(c.b)-c.off)
	}
	c.b = whole
}

// Items walks a slice's length prefix and returns the length, so the
// caller walks the elements with
//
//	for i := range Items(c, &s, size) { walk &s[i] }
//
// Decoding, it replaces *s with that many zero elements (nil for none).
// size is a lower bound on one element's encoding, so a decoder rejects
// a length the remaining input cannot hold before allocating for it.
func Items[T any](c *Codec, s *[]T, size int) int {
	n := uint32(len(*s))
	c.U32(&n)
	if c.mode != decoding {
		return int(n)
	}
	if c.err == nil && int64(n)*int64(size) > int64(len(c.b)-c.off) {
		c.Fail("slice length %d exceeds input", n)
	}
	if c.err != nil || n == 0 {
		*s = nil
		return 0
	}
	*s = make([]T, n)
	return int(n)
}

// Package bitio provides bit-granular writers and readers.
//
// DeLorean's memory-ordering logs are bit-packed: PI log entries are 4-bit
// processor IDs, CS log entries pack a 21-bit chunk distance with an 11-bit
// size, and Order&Size entries are variable width (1 bit for max-size
// chunks, 12 bits otherwise). This package is the substrate those encodings
// are built on.
package bitio

import (
	"errors"
	"fmt"
)

// Writer accumulates values of arbitrary bit width into a byte stream.
// Bits are packed LSB-first within each byte. The zero value is ready to
// use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// AppendWriter returns a Writer whose stream starts after b's bytes:
// Bytes returns b followed by the packed stream, and Len counts only
// the bits written. A log packs straight into a frame buffer this way.
func AppendWriter(b []byte) Writer { return Writer{buf: b} }

// WriteBits appends the low n bits of v to the stream. n must be in
// [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", n))
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	// Fill the current partial byte, then append whole bytes of v at a
	// time — the bit-shuffling per partial byte is paid at most once per
	// call instead of once per byte.
	if off := w.nbit & 7; off != 0 && n > 0 {
		take := 8 - off
		if take > n {
			take = n
		}
		w.buf[len(w.buf)-1] |= byte(v) << uint(off)
		v >>= uint(take)
		w.nbit += take
		n -= take
	}
	for n >= 8 {
		w.buf = append(w.buf, byte(v))
		v >>= 8
		w.nbit += 8
		n -= 8
	}
	if n > 0 {
		w.buf = append(w.buf, byte(v))
		w.nbit += n
	}
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// WriteUvarint appends v using a 7-bit group varint encoding: groups of
// seven value bits each preceded by a continuation bit. Useful for log
// fields with long-tailed distributions (e.g. chunk sizes).
func (w *Writer) WriteUvarint(v uint64) {
	for {
		g := v & 0x7f
		v >>= 7
		if v != 0 {
			w.WriteBits(1, 1)
			w.WriteBits(g, 7)
		} else {
			w.WriteBits(0, 1)
			w.WriteBits(g, 7)
			return
		}
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed stream. Trailing bits of the final byte are
// zero. The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset discards all written bits, retaining the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// ErrShortStream is returned by Reader when a read runs past the end of
// the stream.
var ErrShortStream = errors.New("bitio: read past end of stream")

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf  []byte
	pos  int // bit position
	nbit int // total valid bits
}

// NewReader returns a Reader over buf containing nbit valid bits. If nbit
// is negative, all of buf (8*len(buf) bits) is readable.
func NewReader(buf []byte, nbit int) *Reader {
	if nbit < 0 {
		nbit = 8 * len(buf)
	}
	return &Reader{buf: buf, nbit: nbit}
}

// ReadBits reads the next n bits, LSB-first.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", n))
	}
	if r.pos+n > r.nbit {
		return 0, ErrShortStream
	}
	var v uint64
	got := 0
	// Mirror of WriteBits: drain the current partial byte once, then
	// consume whole bytes.
	if off := r.pos & 7; off != 0 && n > 0 {
		take := 8 - off
		if take > n {
			take = n
		}
		v = uint64(r.buf[r.pos>>3]>>uint(off)) & ((1 << uint(take)) - 1)
		got = take
		r.pos += take
	}
	for n-got >= 8 {
		v |= uint64(r.buf[r.pos>>3]) << uint(got)
		got += 8
		r.pos += 8
	}
	if rem := n - got; rem > 0 {
		v |= (uint64(r.buf[r.pos>>3]) & ((1 << uint(rem)) - 1)) << uint(got)
		r.pos += rem
	}
	return v, nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadUvarint reads a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			return 0, errors.New("bitio: uvarint overflows 64 bits")
		}
		cont, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		g, err := r.ReadBits(7)
		if err != nil {
			return 0, err
		}
		v |= g << uint(shift)
		if cont == 0 {
			return v, nil
		}
	}
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

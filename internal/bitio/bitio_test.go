package bitio

import (
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBool(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBool()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var w Writer
	w.WriteBits(0xffff, 4) // only low 4 bits should land
	r := NewReader(w.Bytes(), w.Len())
	v, err := r.ReadBits(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xf {
		t.Fatalf("got %#x, want 0xf", v)
	}
}

func TestMixedWidths(t *testing.T) {
	var w Writer
	vals := []struct {
		v uint64
		n int
	}{
		{5, 3}, {0, 1}, {1023, 10}, {0xdeadbeef, 32}, {1, 1},
		{0xffffffffffffffff, 64}, {42, 7}, {3, 2},
	}
	for _, kv := range vals {
		w.WriteBits(kv.v, kv.n)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, kv := range vals {
		got, err := r.ReadBits(kv.n)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if got != kv.v {
			t.Errorf("field %d = %#x, want %#x", i, got, kv.v)
		}
	}
}

func TestShortStream(t *testing.T) {
	var w Writer
	w.WriteBits(3, 2)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(3); err != ErrShortStream {
		t.Fatalf("err = %v, want ErrShortStream", err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	var w Writer
	for _, v := range cases {
		w.WriteUvarint(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range cases {
		got, err := r.ReadUvarint()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Errorf("value %d = %d, want %d", i, got, want)
		}
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xff, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("after Reset: Len=%d bytes=%d", w.Len(), len(w.Bytes()))
	}
	w.WriteBits(0xa, 4)
	r := NewReader(w.Bytes(), w.Len())
	v, err := r.ReadBits(4)
	if err != nil || v != 0xa {
		t.Fatalf("got %#x, %v", v, err)
	}
}

func TestNewReaderNegativeUsesWholeBuf(t *testing.T) {
	r := NewReader([]byte{0xff, 0x01}, -1)
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
}

// Property: any sequence of (value, width) fields round-trips.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		var w Writer
		want := make([]uint64, 0, n)
		ws := make([]int, 0, n)
		for i := 0; i < n; i++ {
			width := int(widths[i]%64) + 1
			v := vals[i]
			if width < 64 {
				v &= (1 << uint(width)) - 1
			}
			w.WriteBits(v, width)
			want = append(want, v)
			ws = append(ws, width)
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(ws[i])
			if err != nil || got != want[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: uvarint round-trips for arbitrary values.
func TestQuickUvarintRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		var w Writer
		for _, v := range vals {
			w.WriteUvarint(v)
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, v := range vals {
			got, err := r.ReadUvarint()
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refWrite is the original bit-at-a-time packing; the byte-bulk fast
// path in WriteBits must produce identical streams.
func refWrite(fields []uint64, widths []int) ([]byte, int) {
	var buf []byte
	nbit := 0
	for i, v := range fields {
		for k := 0; k < widths[i]; k++ {
			if nbit&7 == 0 {
				buf = append(buf, 0)
			}
			buf[len(buf)-1] |= byte((v>>uint(k))&1) << uint(nbit&7)
			nbit++
		}
	}
	return buf, nbit
}

// Property: the byte-bulk writer matches the bit-at-a-time reference
// stream exactly (not just round-trip — byte-identical output, which the
// serialized recording format depends on).
func TestQuickWriterMatchesReference(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		var w Writer
		fields := make([]uint64, 0, n)
		ws := make([]int, 0, n)
		for i := 0; i < n; i++ {
			width := int(widths[i] % 65) // 0..64 inclusive: zero-width writes are legal
			v := vals[i]
			if width < 64 {
				v &= (1 << uint(width)) - 1
			}
			w.WriteBits(v, width)
			fields = append(fields, v)
			ws = append(ws, width)
		}
		refBuf, refBits := refWrite(fields, ws)
		if w.Len() != refBits {
			return false
		}
		got := w.Bytes()
		if len(got) != len(refBuf) {
			return false
		}
		for i := range got {
			if got[i] != refBuf[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	var w Writer
	w.WriteBits(0xff, 0)
	w.WriteBits(0x5, 3)
	w.WriteBits(0xff, 0)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	if v, err := r.ReadBits(3); err != nil || v != 5 {
		t.Fatalf("got %#x, %v", v, err)
	}
}

func BenchmarkWriteBits4(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<20 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 4)
	}
}

package dlog

import (
	"testing"
	"testing/quick"

	"delorean/internal/lz77"
	"delorean/internal/rng"
)

func TestPILogEntryBits(t *testing.T) {
	if got := NewPILog(8).EntryBits(); got != 4 {
		t.Fatalf("8 procs + DMA: %d bits, want 4", got)
	}
	if got := NewPILog(4).EntryBits(); got != 3 {
		t.Fatalf("4 procs + DMA: %d bits, want 3", got)
	}
	if got := NewPILog(16).EntryBits(); got != 5 {
		t.Fatalf("16 procs + DMA: %d bits, want 5", got)
	}
}

func TestPILogRoundTrip(t *testing.T) {
	l := NewPILog(8)
	seq := []int{0, 3, 7, 8, 2, 2, 5} // 8 = DMA
	for _, p := range seq {
		l.Append(p)
	}
	if l.RawBits() != 4*len(seq) {
		t.Fatalf("RawBits = %d", l.RawBits())
	}
	packed, nbits := l.Pack()
	got, err := UnpackPILog(8, packed, nbits, len(seq))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.Entries() {
		if p != seq[i] {
			t.Fatalf("entry %d = %d, want %d", i, p, seq[i])
		}
	}
}

func TestPILogRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPILog(8).Append(9)
}

func TestPILogCompression(t *testing.T) {
	// A repetitive commit pattern (round-robin-ish) should compress well.
	l := NewPILog(8)
	for i := 0; i < 8000; i++ {
		l.Append(i % 8)
	}
	if c := l.CompressedBits(); c >= l.RawBits()/2 {
		t.Fatalf("compressed %d of %d raw bits: expected > 2x on periodic data", c, l.RawBits())
	}
}

func TestCSLogFormatWidths(t *testing.T) {
	// 2000-instruction chunks: 11 size bits, 21 distance bits (Table 5).
	l := NewCSLog(2000)
	if l.sizeBits != 11 || l.distBits != 21 {
		t.Fatalf("2000-inst: %d/%d, want 21/11", l.distBits, l.sizeBits)
	}
	// 1000-instruction chunks: 10 size bits, 22 distance bits.
	l = NewCSLog(1000)
	if l.sizeBits != 10 || l.distBits != 22 {
		t.Fatalf("1000-inst: %d/%d, want 22/10", l.distBits, l.sizeBits)
	}
}

func TestCSLogRoundTrip(t *testing.T) {
	l := NewCSLog(2000)
	entries := []CSEntry{{5, 1200}, {17, 3}, {1000000, 1999}}
	for _, e := range entries {
		l.Append(e.SeqID, e.Size)
	}
	packed, nbits := l.Pack()
	got, err := UnpackCSLog(2000, packed, nbits)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries()) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got.Entries()), len(entries))
	}
	for i, e := range got.Entries() {
		if e != entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, e, entries[i])
		}
	}
}

func TestCSLogEscapeDistances(t *testing.T) {
	// A distance beyond 21 bits forces escape entries.
	l := NewCSLog(2000)
	l.Append(10, 5)
	l.Append(10+(1<<22), 7) // distance 2^22 > 2^21-1
	packed, nbits := l.Pack()
	if nbits <= 2*CSEntryBits {
		t.Fatal("escape entry missing")
	}
	got, err := UnpackCSLog(2000, packed, nbits)
	if err != nil {
		t.Fatal(err)
	}
	es := got.Entries()
	if len(es) != 2 || es[1].SeqID != 10+(1<<22) || es[1].Size != 7 {
		t.Fatalf("decoded %+v", es)
	}
}

func TestCSLogOrderEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewCSLog(1000)
	l.Append(5, 10)
	l.Append(5, 11)
}

// Property: random increasing CS entries round-trip.
func TestQuickCSLogRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		s := rng.New(seed)
		n := int(nRaw % 40)
		l := NewCSLog(2000)
		var want []CSEntry
		seq := uint64(0)
		for i := 0; i < n; i++ {
			seq += 1 + uint64(s.Intn(1<<23)) // sometimes beyond field width
			e := CSEntry{SeqID: seq, Size: 1 + s.Intn(1999)}
			l.Append(e.SeqID, e.Size)
			want = append(want, e)
		}
		packed, nbits := l.Pack()
		got, err := UnpackCSLog(2000, packed, nbits)
		if err != nil || len(got.Entries()) != len(want) {
			return false
		}
		for i, e := range got.Entries() {
			if e != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeLogVariableWidth(t *testing.T) {
	l := NewSizeLog(2000)
	l.Append(2000) // 1 bit
	l.Append(37)   // 1 + 11 bits
	if got := l.RawBits(); got != 1+1+11 {
		t.Fatalf("RawBits = %d, want 13", got)
	}
}

func TestSizeLogRoundTrip(t *testing.T) {
	l := NewSizeLog(2000)
	sizes := []int{2000, 2000, 5, 1999, 0, 2000, 1234}
	for _, s := range sizes {
		l.Append(s)
	}
	packed, nbits := l.Pack()
	got, err := UnpackSizeLog(2000, packed, nbits, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got.Sizes() {
		if s != sizes[i] {
			t.Fatalf("size %d = %d, want %d", i, s, sizes[i])
		}
	}
}

func TestIntrLogRoundTrip(t *testing.T) {
	l := &IntrLog{}
	entries := []IntrEntry{
		{SeqID: 2, Type: 1, Data: 0xbeef, Urgent: false},
		{SeqID: 90, Type: 3, Data: 7, Urgent: true},
		{SeqID: 91, Type: 2, Data: 0, Urgent: false},
	}
	for _, e := range entries {
		l.Append(e)
	}
	packed, nbits := l.Pack()
	got, err := UnpackIntrLog(packed, nbits, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Entries() {
		if e != entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, e, entries[i])
		}
	}
}

func TestIOLogBasics(t *testing.T) {
	l := &IOLog{}
	l.Append(1)
	l.Append(0xffffffffffffffff)
	if l.Len() != 2 {
		t.Fatalf("Len=%d", l.Len())
	}
	if l.Values()[1] != 0xffffffffffffffff {
		t.Fatal("value lost")
	}
}

func TestDMALogRoundTrip(t *testing.T) {
	l := &DMALog{}
	entries := []DMAEntry{
		{Addr: 0x500, Data: []uint64{1, 2, 3}, Slot: 12},
		{Addr: 0x900, Data: []uint64{9}, Slot: 77},
	}
	for _, e := range entries {
		l.Append(e)
	}
	packed, nbits := l.Pack()
	got, err := UnpackDMALog(packed, nbits, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Entries() {
		if e.Addr != entries[i].Addr || e.Slot != entries[i].Slot || len(e.Data) != len(entries[i].Data) {
			t.Fatalf("entry %d = %+v", i, e)
		}
		for k, v := range e.Data {
			if v != entries[i].Data[k] {
				t.Fatalf("entry %d data %d mismatch", i, k)
			}
		}
	}
}

func TestSlotLogOrder(t *testing.T) {
	l := &SlotLog{}
	l.Append(SlotEntry{Slot: 5, Proc: 1})
	l.Append(SlotEntry{Slot: 9, Proc: 3})
	if l.Len() != 2 || l.Entries()[1] != (SlotEntry{Slot: 9, Proc: 3}) {
		t.Fatal("slot log empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order slot")
		}
	}()
	l.Append(SlotEntry{Slot: 9, Proc: 0})
}

func TestEmptyLogsZeroBits(t *testing.T) {
	if NewPILog(8).RawBits() != 0 {
		t.Fatal("empty PI log nonzero")
	}
	if NewCSLog(2000).RawBits() != 0 {
		t.Fatal("empty CS log nonzero")
	}
	if NewSizeLog(2000).RawBits() != 0 {
		t.Fatal("empty size log nonzero")
	}
	if (&IntrLog{}).RawBits() != 0 {
		t.Fatal("empty input log nonzero")
	}
}

// Compressed/raw size queries must be memoized: pricing an unchanged log
// twice must not re-run the LZ77 match-finder, and appending must
// invalidate the cache.
func TestSizeQueriesMemoized(t *testing.T) {
	pi := NewPILog(8)
	for i := 0; i < 500; i++ {
		pi.Append(i % 9)
	}
	first := pi.CompressedBits()
	before := lz77.ScanCount()
	for i := 0; i < 10; i++ {
		if got := pi.CompressedBits(); got != first {
			t.Fatalf("CompressedBits changed: %d then %d", first, got)
		}
	}
	if n := lz77.ScanCount() - before; n != 0 {
		t.Fatalf("10 repeated CompressedBits queries ran %d scans, want 0", n)
	}
	pi.Append(3)
	if got := pi.CompressedBits(); got <= 0 {
		t.Fatalf("post-append CompressedBits = %d", got)
	}
	if n := lz77.ScanCount() - before; n != 1 {
		t.Fatalf("append then query ran %d scans, want 1", n)
	}

	cs := NewCSLog(2000)
	for i := 0; i < 200; i++ {
		cs.Append(uint64(3*i+1), i%2000)
	}
	cs.RawBits()
	cs.CompressedBits()
	before = lz77.ScanCount()
	cs.RawBits()
	cs.CompressedBits()
	if n := lz77.ScanCount() - before; n != 0 {
		t.Fatalf("repeated CS queries ran %d scans, want 0", n)
	}
}

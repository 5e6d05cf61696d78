package dlog

import (
	"fmt"

	"delorean/internal/bitio"
)

// IntrEntry is one interrupt delivery: the handler started as chunk
// SeqID on its processor, with the interrupt's type and data. Urgent
// deliveries (high-priority) additionally commit out of turn in PicoLog.
type IntrEntry struct {
	SeqID  uint64
	Type   int64
	Data   int64
	Urgent bool
}

// IntrLog is one processor's interrupt log. Entries are appended in
// increasing SeqID order and encoded as (varint seq delta, 1-bit urgent,
// varint type, varint data).
type IntrLog struct {
	entries []IntrEntry
	rmemo   sizeMemo
}

// Append records a delivery.
func (l *IntrLog) Append(e IntrEntry) {
	if n := len(l.entries); n > 0 && e.SeqID <= l.entries[n-1].SeqID {
		panic("dlog: interrupt entries out of order")
	}
	l.entries = append(l.entries, e)
}

// Entries returns the recorded deliveries.
func (l *IntrLog) Entries() []IntrEntry { return l.entries }

// Len returns the entry count.
func (l *IntrLog) Len() int { return len(l.entries) }

// Pack returns the bit-packed log.
func (l *IntrLog) Pack() ([]byte, int) { return l.AppendPack(nil) }

// AppendPack appends the bit-packed log to b, returning the extended
// buffer and the log's length in bits.
func (l *IntrLog) AppendPack(b []byte) ([]byte, int) {
	w := bitio.AppendWriter(b)
	var prev uint64
	for i, e := range l.entries {
		d := e.SeqID
		if i > 0 {
			d = e.SeqID - prev
		}
		prev = e.SeqID
		w.WriteUvarint(d)
		w.WriteBool(e.Urgent)
		w.WriteUvarint(uint64(e.Type))
		w.WriteUvarint(uint64(e.Data))
	}
	return w.Bytes(), w.Len()
}

// RawBits returns the uncompressed size in bits (memoized).
func (l *IntrLog) RawBits() int {
	return l.rmemo.get(len(l.entries), func() int {
		_, n := l.Pack()
		return n
	})
}

// UnpackIntrLog decodes n entries.
func UnpackIntrLog(packed []byte, nbits, n int) (*IntrLog, error) {
	r := bitio.NewReader(packed, nbits)
	l := &IntrLog{}
	var seq uint64
	for i := 0; i < n; i++ {
		d, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			seq = d
		} else {
			seq += d
		}
		urgent, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		typ, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		data, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		l.entries = append(l.entries, IntrEntry{SeqID: seq, Type: int64(typ), Data: int64(data), Urgent: urgent})
	}
	return l, nil
}

// IOLog is one processor's I/O log: the values obtained by its uncached
// loads, in program order.
type IOLog struct {
	values []uint64
}

// NewIOLog returns a log holding values (not copied).
func NewIOLog(values []uint64) *IOLog { return &IOLog{values: values} }

// Append records one I/O load value.
func (l *IOLog) Append(v uint64) { l.values = append(l.values, v) }

// Values returns the recorded values.
func (l *IOLog) Values() []uint64 { return l.values }

// Len returns the value count.
func (l *IOLog) Len() int { return len(l.values) }

// DMAEntry is one DMA transfer in commit order: the data written, its
// target address, and — in PicoLog, where there is no PI log — the
// commit slot it occupied.
type DMAEntry struct {
	Addr uint32
	Data []uint64
	Slot uint64
}

// DMALog records DMA transfers in commit order.
type DMALog struct {
	entries []DMAEntry
}

// Append records one transfer.
func (l *DMALog) Append(e DMAEntry) { l.entries = append(l.entries, e) }

// Entries returns the transfers in commit order.
func (l *DMALog) Entries() []DMAEntry { return l.entries }

// Len returns the transfer count.
func (l *DMALog) Len() int { return len(l.entries) }

// Pack returns the bit-packed log: (varint slot, 32-bit addr, varint
// word count, words).
func (l *DMALog) Pack() ([]byte, int) { return l.AppendPack(nil) }

// AppendPack appends the bit-packed log to b, returning the extended
// buffer and the log's length in bits.
func (l *DMALog) AppendPack(b []byte) ([]byte, int) {
	w := bitio.AppendWriter(b)
	for _, e := range l.entries {
		w.WriteUvarint(e.Slot)
		w.WriteBits(uint64(e.Addr), 32)
		w.WriteUvarint(uint64(len(e.Data)))
		for _, v := range e.Data {
			w.WriteBits(v, 64)
		}
	}
	return w.Bytes(), w.Len()
}

// UnpackDMALog decodes n entries.
func UnpackDMALog(packed []byte, nbits, n int) (*DMALog, error) {
	r := bitio.NewReader(packed, nbits)
	l := &DMALog{}
	for i := 0; i < n; i++ {
		slot, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		addr, err := r.ReadBits(32)
		if err != nil {
			return nil, err
		}
		count, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		// Each word occupies 64 bits of the stream; a count the stream
		// cannot back is corrupt, and allocating for it first would let a
		// few bytes of input demand gigabytes.
		if count > uint64(r.Remaining())/64 {
			return nil, fmt.Errorf("dlog: DMA entry %d claims %d words, stream has %d bits", i, count, r.Remaining())
		}
		data := make([]uint64, count)
		for k := range data {
			v, err := r.ReadBits(64)
			if err != nil {
				return nil, err
			}
			data[k] = v
		}
		l.entries = append(l.entries, DMAEntry{Addr: uint32(addr), Data: data, Slot: slot})
	}
	return l, nil
}

// SlotEntry pins an urgent (high-priority interrupt handler) commit to
// its recorded commit slot — PicoLog's out-of-turn commit bookkeeping.
type SlotEntry struct {
	Slot uint64
	Proc int
}

// SlotLog records out-of-turn commit slots in slot order.
type SlotLog struct {
	entries []SlotEntry
}

// Append records one out-of-turn commit.
func (l *SlotLog) Append(e SlotEntry) {
	if n := len(l.entries); n > 0 && e.Slot <= l.entries[n-1].Slot {
		panic("dlog: slot entries out of order")
	}
	l.entries = append(l.entries, e)
}

// Entries returns the slots in order.
func (l *SlotLog) Entries() []SlotEntry { return l.entries }

// Len returns the entry count.
func (l *SlotLog) Len() int { return len(l.entries) }

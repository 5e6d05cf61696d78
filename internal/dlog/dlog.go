// Package dlog implements DeLorean's logs with the paper's entry formats
// (Tables 3 and 5).
//
// The memory-ordering log is the PI (Processor Interleaving) log plus the
// per-processor CS (Chunk Size) logs:
//
//   - Order&Size: the PI log records the committing processor ID per
//     commit (4 bits for 8 processors + DMA); every chunk appends its
//     size to its processor's size log, variable-width (1 bit for a
//     max-size chunk, 1+sizeBits otherwise).
//   - OrderOnly: the PI log as above; the CS log holds only the rare
//     non-deterministic truncations as (distance, size) pairs packed into
//     32 bits (e.g. 21-bit distance + 11-bit size for 2000-instruction
//     chunks).
//   - PicoLog: no PI log at all; just the CS log, plus commit-slot
//     references for DMA and out-of-turn interrupt commits.
//
// The input logs (Interrupt, I/O, DMA) are also defined here. Following
// the paper, they are not counted in the memory-ordering log size metric.
//
// The memory-ordering logs report raw bit sizes and LZ77-compressed bit
// sizes, mirroring the paper's compression hardware. The input logs are
// priced by nothing; only the interrupt log reports its raw size, which
// the recorder's trace samples show as log growth.
package dlog

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"delorean/internal/bitio"
	"delorean/internal/lz77"
)

// sizeMemo caches one derived size, keyed by the entry count it was
// computed at — appending invalidates it implicitly, and recordings are
// immutable once Record returns, so steady-state queries never recompute.
// The mutex matters because experiment figures share memoized recordings
// across a worker pool and price the same logs concurrently.
type sizeMemo struct {
	mu    sync.Mutex
	n     int
	bits  int
	valid bool
}

func (m *sizeMemo) get(n int, f func() int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || m.n != n {
		m.bits = f()
		m.n = n
		m.valid = true
	}
	return m.bits
}

// procBits returns the PI entry width for n processors plus the DMA
// pseudo-processor.
func procBits(nprocs int) int {
	return bits.Len(uint(nprocs)) // e.g. 8 procs + DMA = ids 0..8 -> 4 bits
}

// PILog is the processor-interleaving log: the total order of chunk
// commits as a sequence of processor IDs (the DMA pseudo-ID included).
type PILog struct {
	nprocs  int
	entries []int
	cmemo   sizeMemo
}

// NewPILog returns an empty PI log for nprocs processors.
func NewPILog(nprocs int) *PILog { return &PILog{nprocs: nprocs} }

// Append records a commit by proc (which may be the DMA pseudo-ID).
func (l *PILog) Append(proc int) {
	if proc < 0 || proc > l.nprocs {
		panic(fmt.Sprintf("dlog: PI entry %d out of range", proc))
	}
	l.entries = append(l.entries, proc)
}

// Entries returns the recorded sequence (aliased; do not mutate).
func (l *PILog) Entries() []int { return l.entries }

// Len returns the number of entries.
func (l *PILog) Len() int { return len(l.entries) }

// EntryBits returns the width of one PI entry.
func (l *PILog) EntryBits() int { return procBits(l.nprocs) }

// RawBits returns the uncompressed log size in bits.
func (l *PILog) RawBits() int { return len(l.entries) * l.EntryBits() }

// Pack returns the bit-packed log.
func (l *PILog) Pack() ([]byte, int) { return l.AppendPack(nil) }

// AppendPack appends the bit-packed log to b, returning the extended
// buffer and the log's length in bits.
func (l *PILog) AppendPack(b []byte) ([]byte, int) {
	w := bitio.AppendWriter(b)
	eb := l.EntryBits()
	for _, p := range l.entries {
		w.WriteBits(uint64(p), eb)
	}
	return w.Bytes(), w.Len()
}

// CompressedBits returns the LZ77-compressed size in bits (memoized).
func (l *PILog) CompressedBits() int {
	return l.cmemo.get(len(l.entries), func() int {
		b, _ := l.Pack()
		return lz77.CompressedBits(b)
	})
}

// UnpackPILog decodes a packed PI log with n entries, failing before it
// allocates if the stream cannot hold them.
func UnpackPILog(nprocs int, packed []byte, nbits, n int) (*PILog, error) {
	r := bitio.NewReader(packed, nbits)
	l := NewPILog(nprocs)
	eb := l.EntryBits()
	if n < 0 || n > nbits/eb {
		return nil, fmt.Errorf("dlog: %d PI entries of %d bits in a %d-bit stream", n, eb, nbits)
	}
	l.entries = slices.Grow(l.entries, n)
	for i := 0; i < n; i++ {
		v, err := r.ReadBits(eb)
		if err != nil {
			return nil, err
		}
		l.entries = append(l.entries, int(v))
	}
	return l, nil
}

// CSEntry records one non-deterministic truncation: chunk SeqID was
// committed with Size instructions.
type CSEntry struct {
	SeqID uint64
	Size  int
}

// CSLog is one processor's chunk-size log. Entries pack into a constant
// 32 bits: sizeBits = ceil(log2(chunkSize+1)) for the configured standard
// chunk size, and distBits = 32 - sizeBits carry the distance (in chunks)
// from the previous truncated chunk — the paper's "21-bit distance,
// 11-bit size" format for 2000-instruction chunks. Distances too large
// for the field are carried by escape entries (all-ones distance,
// size 0).
type CSLog struct {
	distBits, sizeBits int
	entries            []CSEntry
	rmemo, cmemo       sizeMemo
}

// CSEntryBits is the constant packed entry width.
const CSEntryBits = 32

// NewCSLog returns a CS log sized for the given standard chunk size.
func NewCSLog(chunkSize int) *CSLog {
	sizeBits := bits.Len(uint(chunkSize))
	if sizeBits >= CSEntryBits {
		panic("dlog: chunk size too large for CS entry")
	}
	return &CSLog{distBits: CSEntryBits - sizeBits, sizeBits: sizeBits}
}

// Append records a truncation of chunk seqID at size instructions.
// SeqIDs must be appended in increasing order.
func (l *CSLog) Append(seqID uint64, size int) {
	if n := len(l.entries); n > 0 && seqID <= l.entries[n-1].SeqID {
		panic("dlog: CS entries out of order")
	}
	if size < 0 || size >= 1<<uint(l.sizeBits) {
		panic(fmt.Sprintf("dlog: CS size %d out of range", size))
	}
	l.entries = append(l.entries, CSEntry{SeqID: seqID, Size: size})
}

// Entries returns the recorded truncations.
func (l *CSLog) Entries() []CSEntry { return l.entries }

// Len returns the entry count.
func (l *CSLog) Len() int { return len(l.entries) }

// RawBits returns the uncompressed size in bits, including escapes
// (memoized).
func (l *CSLog) RawBits() int {
	return l.rmemo.get(len(l.entries), func() int {
		_, n := l.Pack()
		return n
	})
}

// Pack returns the bit-packed log.
func (l *CSLog) Pack() ([]byte, int) { return l.AppendPack(nil) }

// AppendPack appends the bit-packed log to b, returning the extended
// buffer and the log's length in bits.
func (l *CSLog) AppendPack(b []byte) ([]byte, int) {
	w := bitio.AppendWriter(b)
	maxDist := uint64(1)<<uint(l.distBits) - 1
	prev := uint64(0)
	first := true
	for _, e := range l.entries {
		var dist uint64
		if first {
			dist = e.SeqID
			first = false
		} else {
			dist = e.SeqID - prev
		}
		prev = e.SeqID
		for dist >= maxDist {
			// Escape: maximum distance with size 0.
			w.WriteBits(maxDist, l.distBits)
			w.WriteBits(0, l.sizeBits)
			dist -= maxDist
		}
		w.WriteBits(dist, l.distBits)
		w.WriteBits(uint64(e.Size), l.sizeBits)
	}
	return w.Bytes(), w.Len()
}

// CompressedBits returns the LZ77-compressed size in bits (memoized).
func (l *CSLog) CompressedBits() int {
	return l.cmemo.get(len(l.entries), func() int {
		b, _ := l.Pack()
		return lz77.CompressedBits(b)
	})
}

// UnpackCSLog decodes a packed CS log (nbits total) for the given
// standard chunk size.
func UnpackCSLog(chunkSize int, packed []byte, nbits int) (*CSLog, error) {
	l := NewCSLog(chunkSize)
	r := bitio.NewReader(packed, nbits)
	maxDist := uint64(1)<<uint(l.distBits) - 1
	var seq uint64
	first := true
	var pendingEscape uint64
	for r.Remaining() >= CSEntryBits {
		d, err := r.ReadBits(l.distBits)
		if err != nil {
			return nil, err
		}
		s, err := r.ReadBits(l.sizeBits)
		if err != nil {
			return nil, err
		}
		if d == maxDist && s == 0 {
			pendingEscape += maxDist
			continue
		}
		d += pendingEscape
		pendingEscape = 0
		if first {
			seq = d
			first = false
		} else {
			seq += d
		}
		l.entries = append(l.entries, CSEntry{SeqID: seq, Size: int(s)})
	}
	return l, nil
}

// SizeLog is one processor's Order&Size chunk-size log: every committed
// chunk's size, variable-width encoded — a single 1 bit for a chunk of
// exactly the maximum size, otherwise a 0 bit followed by sizeBits of
// size (Table 5's "1 bit if max size, else 12 bits").
type SizeLog struct {
	maxSize  int
	sizeBits int
	sizes    []int
	cmemo    sizeMemo
}

// NewSizeLog returns an empty size log for chunks of at most maxSize.
func NewSizeLog(maxSize int) *SizeLog {
	return &SizeLog{maxSize: maxSize, sizeBits: bits.Len(uint(maxSize))}
}

// Append records one committed chunk's size.
func (l *SizeLog) Append(size int) {
	if size < 0 || size > l.maxSize {
		panic(fmt.Sprintf("dlog: size %d out of range [0,%d]", size, l.maxSize))
	}
	l.sizes = append(l.sizes, size)
}

// Sizes returns the recorded sizes.
func (l *SizeLog) Sizes() []int { return l.sizes }

// EntryBits returns the raw-bit cost of recording one chunk of the given
// size (1 bit for a full-size chunk, 1+sizeBits otherwise) — an O(1)
// increment for observability counters, where RawBits walks every entry.
func (l *SizeLog) EntryBits(size int) int {
	if size == l.maxSize {
		return 1
	}
	return 1 + l.sizeBits
}

// Len returns the number of chunks recorded.
func (l *SizeLog) Len() int { return len(l.sizes) }

// RawBits returns the uncompressed size in bits.
func (l *SizeLog) RawBits() int {
	n := 0
	for _, s := range l.sizes {
		if s == l.maxSize {
			n++
		} else {
			n += 1 + l.sizeBits
		}
	}
	return n
}

// Pack returns the bit-packed log.
func (l *SizeLog) Pack() ([]byte, int) { return l.AppendPack(nil) }

// AppendPack appends the bit-packed log to b, returning the extended
// buffer and the log's length in bits.
func (l *SizeLog) AppendPack(b []byte) ([]byte, int) {
	w := bitio.AppendWriter(b)
	for _, s := range l.sizes {
		if s == l.maxSize {
			w.WriteBool(true)
		} else {
			w.WriteBool(false)
			w.WriteBits(uint64(s), l.sizeBits)
		}
	}
	return w.Bytes(), w.Len()
}

// CompressedBits returns the LZ77-compressed size in bits (memoized).
func (l *SizeLog) CompressedBits() int {
	return l.cmemo.get(len(l.sizes), func() int {
		b, _ := l.Pack()
		return lz77.CompressedBits(b)
	})
}

// UnpackSizeLog decodes n entries (at least a bit each) from a packed
// size log, failing before it allocates if the stream cannot hold them.
func UnpackSizeLog(maxSize int, packed []byte, nbits, n int) (*SizeLog, error) {
	l := NewSizeLog(maxSize)
	r := bitio.NewReader(packed, nbits)
	if n < 0 || n > nbits {
		return nil, fmt.Errorf("dlog: %d size entries in a %d-bit stream", n, nbits)
	}
	l.sizes = slices.Grow(l.sizes, n)
	for i := 0; i < n; i++ {
		isMax, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if isMax {
			l.sizes = append(l.sizes, l.maxSize)
			continue
		}
		s, err := r.ReadBits(l.sizeBits)
		if err != nil {
			return nil, err
		}
		l.sizes = append(l.sizes, int(s))
	}
	return l, nil
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"delorean/internal/bulksc"
	"delorean/internal/dlog"
	"delorean/internal/mem"
)

// Recording serialization: a recording written during one session can be
// replayed in another (or on another machine). WriteTo emits the framed
// v4 container described in framev4.go; ReadRecording and IndexRecording
// (lazy.go) load it. Earlier container versions are rejected as corrupt.
const recMagic = "DLRN"

// The limits of a recording: the loader rejects a header beyond them as
// corrupt, so a recording made beyond them cannot be loaded back (or, for
// MaxStratify, is saved truncated). Request parsers apply the same limits
// before they simulate.
const (
	// MaxProcs bounds the processor count (the header stores it in 16
	// bits).
	MaxProcs = 1024
	// MaxChunkSize bounds the chunk size: large enough for any plausible
	// configuration (the paper uses 2000), small enough that the CS/size
	// log entry widths stay well-formed.
	MaxChunkSize = 1 << 20
	// MaxStratify bounds the chunks per processor per stratum: the
	// container stores the stratum counters and their maximum in 16 bits.
	MaxStratify = 1<<16 - 1
)

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
	// scratch holds one fixed-width value on its way to w: a slice of a
	// local array would escape through the io.Writer call and cost an
	// allocation per value.
	scratch [8]byte
}

func (c *countingWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
}

func (c *countingWriter) u8(v uint8) {
	c.scratch[0] = v
	c.write(c.scratch[:1])
}
func (c *countingWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(c.scratch[:], v)
	c.write(c.scratch[:2])
}
func (c *countingWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.scratch[:], v)
	c.write(c.scratch[:4])
}
func (c *countingWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.scratch[:], v)
	c.write(c.scratch[:8])
}

func (c *countingWriter) packed(buf []byte, bits int) {
	c.u32(uint32(bits))
	c.write(buf[:(bits+7)/8])
}

// WriteTo serializes the recording in the current (v4) format. It
// implements io.WriterTo. Equivalent to WriteToParallel with the
// host-default worker count; output bytes are identical either way.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	return r.WriteToParallel(w, 0)
}

// Checkpoint flag bits (one byte per processor state).
const (
	cpHalted      = 1 << 0
	cpInIntr      = 1 << 1
	cpIntrUrgent  = 1 << 2
	cpDone        = 1 << 3
	cpPendingIntr = 1 << 4
	cpPendUrgent  = 1 << 5
)

// writeCheckpointBody serializes one checkpoint: everything segmented
// replay needs to resume an interval. The memory image is stored as the
// engine's delta — only the words that changed during the interval — so
// a checkpoint does not duplicate the whole footprint.
func (r *Recording) writeCheckpointBody(c *countingWriter, cp *IntervalCheckpoint) {
	c.u64(cp.Slot)
	c.u16(uint16(cp.TokenAt + 1)) // -1 (unordered) encodes as 0
	c.u64(cp.Fingerprint)
	c.u64(cp.IntervalFingerprint)
	writeChains := func(chains []uint64) {
		if len(chains) == r.NProcs {
			c.u8(1)
			for _, ch := range chains {
				c.u64(ch)
			}
		} else {
			c.u8(0)
		}
	}
	writeChains(cp.ProcChains)
	writeChains(cp.IntervalChains)

	for p := range cp.Procs {
		pc := &cp.Procs[p]
		var flags uint8
		if pc.State.Halted {
			flags |= cpHalted
		}
		if pc.State.InIntr {
			flags |= cpInIntr
		}
		if pc.State.IntrUrgent {
			flags |= cpIntrUrgent
		}
		if pc.Done {
			flags |= cpDone
		}
		if pc.PendingIntr != nil {
			flags |= cpPendingIntr
			if pc.PendingIntr.Urgent {
				flags |= cpPendUrgent
			}
		}
		c.u8(flags)
		c.u64(uint64(pc.State.PC))
		for _, v := range pc.State.Reg {
			c.u64(uint64(v))
		}
		c.u64(uint64(pc.State.IntrPC))
		for _, v := range pc.State.IntrReg {
			c.u64(uint64(v))
		}
		c.u64(pc.NextSeq)
		c.u32(uint32(pc.IOConsumed))
		if pc.PendingIntr != nil {
			c.u64(pc.PendingIntr.Seq)
			c.u64(uint64(pc.PendingIntr.Type))
			c.u64(uint64(pc.PendingIntr.Data))
		}
	}

	// Memory delta: the image's address order, carried raw. Interval
	// write footprints revisit the same working set, so the pair stream
	// compresses well under the frame-level LZ77.
	raw := make([]byte, 0, 12*len(cp.MemDelta))
	var pair [12]byte
	for _, w := range cp.MemDelta {
		binary.LittleEndian.PutUint32(pair[0:4], w.Addr)
		binary.LittleEndian.PutUint64(pair[4:12], w.Val)
		raw = append(raw, pair[:]...)
	}
	c.u32(uint32(len(cp.MemDelta)))
	c.u32(uint32(len(raw)))
	c.write(raw)
}

// readCheckpointBody parses one checkpoint, mirroring writeCheckpointBody.
func (r *Recording) readCheckpointBody(d *reader, i int) (IntervalCheckpoint, error) {
	var cp IntervalCheckpoint
	cp.Slot = d.u64()
	cp.TokenAt = int(d.u16()) - 1
	cp.Fingerprint = d.u64()
	cp.IntervalFingerprint = d.u64()
	readChains := func() []uint64 {
		if d.u8() != 1 {
			return nil
		}
		chains := make([]uint64, r.NProcs)
		for p := range chains {
			chains[p] = d.u64()
		}
		return chains
	}
	cp.ProcChains = readChains()
	cp.IntervalChains = readChains()

	for p := 0; p < r.NProcs && d.err == nil; p++ {
		var pc bulksc.ProcCheckpoint
		flags := d.u8()
		pc.State.Halted = flags&cpHalted != 0
		pc.State.InIntr = flags&cpInIntr != 0
		pc.State.IntrUrgent = flags&cpIntrUrgent != 0
		pc.Done = flags&cpDone != 0
		pc.State.PC = int(d.u64())
		for k := range pc.State.Reg {
			pc.State.Reg[k] = int64(d.u64())
		}
		pc.State.IntrPC = int(d.u64())
		for k := range pc.State.IntrReg {
			pc.State.IntrReg[k] = int64(d.u64())
		}
		pc.NextSeq = d.u64()
		pc.IOConsumed = int(d.u32())
		if d.err == nil && (pc.State.PC < 0 || pc.State.PC > 1<<31 ||
			pc.State.IntrPC < 0 || pc.State.IntrPC > 1<<31 || pc.IOConsumed < 0) {
			return cp, corrupt("checkpoint %d proc %d has implausible resume state", i, p)
		}
		if flags&cpPendingIntr != 0 {
			pc.PendingIntr = &bulksc.PendingIntr{
				Seq:    d.u64(),
				Type:   int64(d.u64()),
				Data:   int64(d.u64()),
				Urgent: flags&cpPendUrgent != 0,
			}
		}
		cp.Procs = append(cp.Procs, pc)
	}

	words := d.u32()
	raw := d.bytes(int64(d.u32()))
	if d.err != nil {
		return cp, nil
	}
	if len(raw) != 12*int(words) {
		return cp, corrupt("checkpoint %d memory delta holds %d bytes for %d words", i, len(raw), words)
	}
	delta, ok := decodeImage(raw)
	if !ok {
		return cp, corrupt("checkpoint %d memory delta addresses do not strictly increase", i)
	}
	cp.MemDelta = delta
	return cp, nil
}

// decodeImage decodes packed 12-byte little-endian address/value pairs.
// It reports false unless the addresses strictly increase, the only
// order the writer emits.
func decodeImage(raw []byte) (mem.Image, bool) {
	img := make(mem.Image, len(raw)/12)
	for i := range img {
		p := raw[12*i:]
		img[i] = mem.Word{Addr: binary.LittleEndian.Uint32(p), Val: binary.LittleEndian.Uint64(p[4:])}
		if i > 0 && img[i].Addr <= img[i-1].Addr {
			return nil, false
		}
	}
	return img, true
}

// reader decodes little-endian fields from an in-memory buffer (a
// container header or a decoded frame payload). The first short read
// sticks in err; later reads return zeros.
type reader struct {
	r   *bytes.Reader
	err error
}

func (d *reader) read(p []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, p)
}

func (d *reader) u8() uint8   { var b [1]byte; d.read(b[:]); return b[0] }
func (d *reader) u16() uint16 { var b [2]byte; d.read(b[:]); return binary.LittleEndian.Uint16(b[:]) }
func (d *reader) u32() uint32 { var b [4]byte; d.read(b[:]); return binary.LittleEndian.Uint32(b[:]) }
func (d *reader) u64() uint64 { var b [8]byte; d.read(b[:]); return binary.LittleEndian.Uint64(b[:]) }

// bytes reads n bytes. A length past the end of the buffer fails
// before allocating, so a lying length field costs nothing.
func (d *reader) bytes(n int64) []byte {
	if d.err == nil && n > int64(d.r.Len()) {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	buf := make([]byte, n)
	d.read(buf)
	return buf
}

func (d *reader) packed() ([]byte, int) {
	bits := d.u32()
	buf := d.bytes((int64(bits) + 7) / 8)
	return buf, int(bits)
}

// allocHint clamps an untrusted element count to a sane pre-allocation
// size; the actual data is still bounded by the stream, so a lying count
// only costs reallocation, never an absurd up-front allocation.
func allocHint(n uint32) int {
	const limit = 1 << 16
	if n > limit {
		return limit
	}
	return int(n)
}

// ReadRecording deserializes a v4 recording written by WriteTo.
// Malformed input — bad magic, an unsupported version, truncated
// stream, implausible lengths, or log contents that fail Validate —
// returns an error wrapping ErrCorruptLog.
func ReadRecording(src io.Reader) (*Recording, error) {
	return ReadRecordingParallel(src, 0)
}

// readHeader parses the container header — magic through the stats
// words — returning a recording with only the header fields populated.
// Every version but 4 is rejected.
func readHeader(d *reader) (*Recording, error) {
	var magic [4]byte
	d.read(magic[:])
	if d.err != nil {
		return nil, corrupt("short header: %v", d.err)
	}
	if string(magic[:]) != recMagic {
		return nil, corrupt("not a DeLorean recording (magic %q)", magic)
	}
	if version := d.u16(); version != recVersionV4 {
		return nil, corrupt("unsupported recording version %d", version)
	}

	r := &Recording{
		Mode:  Mode(d.u8()),
		DMA:   &dlog.DMALog{},
		Slots: &dlog.SlotLog{},
	}
	r.NProcs = int(d.u16())
	r.ChunkSize = int(d.u32())
	if d.err == nil && (r.NProcs <= 0 || r.NProcs > MaxProcs || r.ChunkSize <= 0 || r.ChunkSize > MaxChunkSize) {
		return nil, corrupt("implausible header (%d procs, chunk %d)", r.NProcs, r.ChunkSize)
	}
	if d.err == nil && (r.Mode < OrderSize || r.Mode > PicoLog) {
		return nil, corrupt("unknown mode %d", int(r.Mode))
	}
	r.Fingerprint = d.u64()
	r.FinalMemHash = d.u64()
	if d.err == nil {
		r.ProcChains = make([]uint64, r.NProcs)
		for p := range r.ProcChains {
			r.ProcChains[p] = d.u64()
		}
	}
	r.Stats.Insts = d.u64()
	r.Stats.Chunks = d.u64()
	r.Stats.Cycles = d.u64()
	r.Stats.Converged = true
	if d.err != nil {
		return nil, corrupt("truncated recording: %v", d.err)
	}
	return r, nil
}

// ReadRecordingParallel is ReadRecording with an explicit decode worker
// count (0: host default, 1: fully sequential). It indexes the container
// (IndexRecording) and materializes every section, so the result is
// identical at any worker count.
func ReadRecordingParallel(src io.Reader, workers int) (*Recording, error) {
	// A source that knows its remaining length (bytes.Reader,
	// strings.Reader, bytes.Buffer) is copied once into a presized
	// buffer; the MinRead slack lets the final EOF read land without
	// growing it.
	var buf bytes.Buffer
	if l, ok := src.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(src); err != nil {
		return nil, fmt.Errorf("core: reading recording: %w", err)
	}
	r, err := IndexRecording(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := r.Materialize(workers); err != nil {
		return nil, err
	}
	return r, nil
}

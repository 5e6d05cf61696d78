package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"delorean/internal/bulksc"
	"delorean/internal/dlog"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
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
	// MaxProcs bounds the processor count: the simulator's coherence
	// directory tracks at most sim.MaxProcs sharers. Record refuses a
	// larger machine before it simulates.
	MaxProcs = sim.MaxProcs
	// MaxChunkSize bounds the chunk size: large enough for any plausible
	// configuration (the paper uses 2000), small enough that the CS/size
	// log entry widths stay well-formed.
	MaxChunkSize = 1 << 20
	// MaxStratify bounds the chunks per processor per stratum: the
	// container stores the stratum counters and their maximum in 16 bits.
	MaxStratify = 1<<16 - 1
)

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

// writeCheckpointBody appends one checkpoint to b: everything
// segmented replay needs to resume an interval. The memory image is
// stored as the engine's delta — only the words that changed during the
// interval — so a checkpoint does not duplicate the whole footprint.
func (r *Recording) writeCheckpointBody(b []byte, cp *IntervalCheckpoint) []byte {
	b = le.AppendUint64(b, cp.Slot)
	b = le.AppendUint16(b, uint16(cp.TokenAt+1)) // -1 (unordered) encodes as 0
	b = le.AppendUint64(b, cp.Fingerprint)
	b = le.AppendUint64(b, cp.IntervalFingerprint)
	for _, chains := range [2][]uint64{cp.ProcChains, cp.IntervalChains} {
		if len(chains) != r.NProcs {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		for _, ch := range chains {
			b = le.AppendUint64(b, ch)
		}
	}

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
		b = append(b, flags)
		b = le.AppendUint64(b, uint64(pc.State.PC))
		for _, v := range pc.State.Reg {
			b = le.AppendUint64(b, uint64(v))
		}
		b = le.AppendUint64(b, uint64(pc.State.IntrPC))
		for _, v := range pc.State.IntrReg {
			b = le.AppendUint64(b, uint64(v))
		}
		b = le.AppendUint64(b, pc.NextSeq)
		b = le.AppendUint32(b, uint32(pc.IOConsumed))
		if pc.PendingIntr != nil {
			b = le.AppendUint64(b, pc.PendingIntr.Seq)
			b = le.AppendUint64(b, uint64(pc.PendingIntr.Type))
			b = le.AppendUint64(b, uint64(pc.PendingIntr.Data))
		}
	}

	// Memory delta: the image's address order, carried raw. Interval
	// write footprints revisit the same working set, so the pair stream
	// compresses well under the frame-level LZ77.
	b = le.AppendUint32(b, uint32(len(cp.MemDelta)))
	return appendImage(le.AppendUint32(b, uint32(12*len(cp.MemDelta))), cp.MemDelta)
}

// cpProcLen is the smallest encoding of one checkpointed processor
// state: flags, PC, registers, interrupt PC and registers, next
// sequence number and I/O count.
const cpProcLen = 1 + 8 + 8*isa.NumRegs + 8 + 8*isa.NumRegs + 8 + 4

// readCheckpointBody parses one checkpoint, mirroring
// writeCheckpointBody. Its allocations do not depend on the processor
// count: the chain digests, the processor states and their pending
// interrupts each take one.
func (r *Recording) readCheckpointBody(d *dec, i int) (IntervalCheckpoint, error) {
	var cp IntervalCheckpoint
	cp.Slot = d.u64()
	cp.TokenAt = int(d.u16()) - 1
	cp.Fingerprint = d.u64()
	cp.IntervalFingerprint = d.u64()
	readChains := func() []uint64 {
		if d.u8() != 1 || !d.fits(r.NProcs, 8) {
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

	if d.fits(r.NProcs, cpProcLen) {
		cp.Procs = make([]bulksc.ProcCheckpoint, r.NProcs)
	}
	var pending []bulksc.PendingIntr
	for p := 0; p < len(cp.Procs) && d.err == nil; p++ {
		pc := &cp.Procs[p]
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
			if pending == nil {
				pending = make([]bulksc.PendingIntr, r.NProcs)
			}
			pending[p] = bulksc.PendingIntr{
				Seq:    d.u64(),
				Type:   int64(d.u64()),
				Data:   int64(d.u64()),
				Urgent: flags&cpPendUrgent != 0,
			}
			pc.PendingIntr = &pending[p]
		}
	}

	words := d.u32()
	raw := d.bytes(int(d.u32()))
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

// appendImage appends an image as 12-byte little-endian address/value
// pairs.
func appendImage(b []byte, img mem.Image) []byte {
	for _, w := range img {
		b = le.AppendUint64(le.AppendUint32(b, w.Addr), w.Val)
	}
	return b
}

// decodeImage decodes packed 12-byte little-endian address/value pairs.
// It reports false unless the addresses strictly increase, the only
// order the writer emits.
func decodeImage(raw []byte) (mem.Image, bool) {
	img := make(mem.Image, len(raw)/12)
	for i := range img {
		p := raw[12*i:]
		img[i] = mem.Word{Addr: le.Uint32(p), Val: le.Uint64(p[4:])}
		if i > 0 && img[i].Addr <= img[i-1].Addr {
			return nil, false
		}
	}
	return img, true
}

// le is the container's byte order.
var le = binary.LittleEndian

// dec reads little-endian fields off an in-memory buffer (a container
// header or a decoded frame payload) in place: bytes returns a subslice,
// so whatever outlives the buffer must be copied out of it. The first
// short read sticks in err, as io.ReadFull reports it; later reads
// return zeros.
type dec struct {
	b   []byte
	err error
}

// bytes reads n bytes. A length past the end of the buffer fails before
// anything is read, so a lying length field costs nothing.
func (d *dec) bytes(n int) []byte {
	if d.err == nil && n > len(d.b) {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// fixed reads one n-byte field, n at most 8; at the end of the buffer
// it fails with io.EOF. A failed read returns zeros.
func (d *dec) fixed(n int) []byte {
	if d.err == nil && len(d.b) == 0 {
		d.err = io.EOF
	}
	if p := d.bytes(n); p != nil {
		return p
	}
	return zeros[:n]
}

var zeros [8]byte

func (d *dec) u8() uint8   { return d.fixed(1)[0] }
func (d *dec) u16() uint16 { return le.Uint16(d.fixed(2)) }
func (d *dec) u32() uint32 { return le.Uint32(d.fixed(4)) }
func (d *dec) u64() uint64 { return le.Uint64(d.fixed(8)) }

// fits checks a declared count of size-byte elements against the bytes
// left, so a count the payload cannot back fails before anything is
// allocated for it.
func (d *dec) fits(count, size int) bool {
	if d.err == nil && uint64(count)*uint64(size) > uint64(len(d.b)) {
		d.err = io.ErrUnexpectedEOF
	}
	return d.err == nil
}

func (d *dec) packed() ([]byte, int) {
	bits := d.u32()
	return d.bytes(int((uint64(bits) + 7) / 8)), int(bits)
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
func readHeader(d *dec) (*Recording, error) {
	magic := d.fixed(len(recMagic))
	if d.err != nil {
		return nil, corrupt("short header: %v", d.err)
	}
	if string(magic) != recMagic {
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
	if d.fits(r.NProcs, 8) {
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

package core

import (
	"hash/crc32"
	"io"
	"slices"

	"delorean/internal/bitio"
	"delorean/internal/dlog"
	"delorean/internal/lz77"
	"delorean/internal/runner"
	"delorean/internal/stratifier"
)

// The v4 "DLRN" container. Layout (little-endian):
//
//	magic "DLRN" | version u16 (= 4) | mode u8 | nprocs u16 | chunkSize u32
//	fingerprint u64 | finalMemHash u64 | per-proc chain digests (nprocs x u64)
//	stats: insts u64, chunks u64, cycles u64
//	frames, in canonical kind order, then an end frame
//
// Each frame is
//
//	kind u8 | shard u32 | enc u8 | payloadLen u32 | crc32 u32 | payload
//
// where crc32 is IEEE over the encoded payload, enc 0 is a raw payload
// and enc 1 is an LZ77 payload (rawLen u32 | bitLen u32 | packed bytes).
// A frame is compressed exactly when that makes it smaller, so the
// encoding decision is a pure function of the payload and the emitted
// bytes are deterministic. Frame kinds, in stream order:
//
//	init-mem    (addr u32, value u64) pairs in ascending address order
//	PI          the chunk commit order (absent in PicoLog)
//	CS          one frame per processor
//	sizes       one frame per processor (Order&Size only)
//	intr, IO    one frame per processor each
//	DMA, slots  one frame each
//	checkpoint  one frame per interval checkpoint (writeCheckpointBody)
//	stratified  optional
//
// Framing each shard independently is what makes the save pipeline
// parallel: workers build and compress frames concurrently while the
// writer goroutine emits them in canonical shard order, so the output is
// byte-identical at any worker count and peak memory is bounded by the
// frames in flight, not the recording. Loading indexes the frames
// (IndexRecording, which enforces the frame-structure rules) and decodes
// payloads on a worker pool when a section is first needed.
const (
	recVersionV4 = 4

	frameInitMem    = 1
	framePI         = 2
	frameCS         = 3
	frameSizes      = 4
	frameIntr       = 5
	frameIO         = 6
	frameDMA        = 7
	frameSlots      = 8
	frameCheckpoint = 9
	frameStratified = 10
	frameEnd        = 11

	encRaw  = 0
	encLZ77 = 1

	frameHeaderLen = 1 + 4 + 1 + 4 + 4

	// maxFramePayload bounds a frame's declared payload length on load.
	maxFramePayload = 1 << 31
)

// singletonFrame reports whether a container carries at most one frame
// of the kind (every other kind has one frame per processor or per
// checkpoint).
func singletonFrame(kind uint8) bool {
	switch kind {
	case frameCS, frameSizes, frameIntr, frameIO, frameCheckpoint:
		return false
	}
	return true
}

// frameSpec names one frame of the canonical sequence: its kind, shard
// index, and a builder that appends the raw (pre-compression) payload
// to b.
type frameSpec struct {
	kind  uint8
	shard uint32
	build func(b []byte) []byte
}

// frameScratch is one encoder's buffers, reused from frame to frame and
// from one serialization to the next: the raw payload and the LZ77 token
// stream. Only the finished frame is allocated per frame.
type frameScratch struct {
	raw []byte
	lz  bitio.Writer
}

// frameScratches holds released scratches. One that grew past
// maxKeptScratch, for an unusually large recording, is dropped instead,
// so the list does not pin that much memory between serializations.
var frameScratches runner.FreeList[*frameScratch]

const maxKeptScratch = 1 << 20

func getFrameScratch() *frameScratch {
	if sc, ok := frameScratches.Get(); ok {
		return sc
	}
	return &frameScratch{}
}

func putFrameScratch(sc *frameScratch) {
	if cap(sc.raw)+cap(sc.lz.Bytes()) <= maxKeptScratch {
		frameScratches.Put(sc)
	}
}

// encodeFrame turns a spec into its wire bytes: build the raw payload,
// compress it if that is a net win, and prepend the frame header.
func encodeFrame(s frameSpec, sc *frameScratch) []byte {
	raw := s.build(sc.raw[:0])
	sc.raw = raw
	lz77.CompressInto(&sc.lz, raw)
	bits := sc.lz.Len()
	packed := sc.lz.Bytes()[:(bits+7)/8]
	enc := uint8(encRaw)
	bodyLen := len(raw)
	if 8+len(packed) < len(raw) {
		enc = encLZ77
		bodyLen = 8 + len(packed)
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+bodyLen)
	if enc == encLZ77 {
		frame = le.AppendUint32(frame, uint32(len(raw)))
		frame = le.AppendUint32(frame, uint32(bits))
		frame = append(frame, packed...)
	} else {
		frame = append(frame, raw...)
	}
	frame[0] = s.kind
	le.PutUint32(frame[1:5], s.shard)
	frame[5] = enc
	le.PutUint32(frame[6:10], uint32(bodyLen))
	le.PutUint32(frame[10:14], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
	return frame
}

// decodeFramePayload verifies the CRC and undoes the payload encoding.
func decodeFramePayload(enc uint8, crc uint32, body []byte) ([]byte, error) {
	if crc32.ChecksumIEEE(body) != crc {
		return nil, corrupt("frame payload CRC mismatch")
	}
	switch enc {
	case encRaw:
		return body, nil
	case encLZ77:
		if len(body) < 8 {
			return nil, corrupt("LZ77 frame too short for its header")
		}
		rawLen := le.Uint32(body[0:4])
		bits := le.Uint32(body[4:8])
		if bits > maxFramePayload || int((bits+7)/8) != len(body)-8 {
			return nil, corrupt("LZ77 frame bit length %d does not match %d payload bytes", bits, len(body)-8)
		}
		// The declared length caps the output, so a crafted token stream
		// is rejected before it can expand past it.
		raw, err := lz77.Decompress(body[8:], int(bits), int(rawLen))
		if err != nil {
			return nil, corrupt("LZ77 frame: %v", err)
		}
		if len(raw) != int(rawLen) {
			return nil, corrupt("LZ77 frame decodes to %d bytes, declared %d", len(raw), rawLen)
		}
		return raw, nil
	default:
		return nil, corrupt("unknown frame encoding %d", enc)
	}
}

// packedLog is a log stored bit-packed.
type packedLog interface {
	Len() int
	Pack() ([]byte, int)
}

// frameSpecs enumerates the recording's frames in canonical order. The
// builders only read the recording, so they are safe to run concurrently.
func (r *Recording) frameSpecs() []frameSpec {
	var specs []frameSpec
	add := func(kind uint8, shard int, build func(b []byte) []byte) {
		specs = append(specs, frameSpec{kind: kind, shard: uint32(shard), build: build})
	}
	// packed builds a bit-packed log's payload: entry count, bit
	// length, bytes.
	packed := func(l packedLog) func(b []byte) []byte {
		return func(b []byte) []byte {
			buf, bits := l.Pack()
			b = le.AppendUint32(le.AppendUint32(b, uint32(l.Len())), uint32(bits))
			return append(b, buf[:(bits+7)/8]...)
		}
	}
	add(frameInitMem, 0, func(b []byte) []byte {
		return appendImage(le.AppendUint32(b, uint32(len(r.InitialMem))), r.InitialMem)
	})
	if r.PI != nil {
		add(framePI, 0, packed(r.PI))
	}
	for p, l := range r.CS {
		add(frameCS, p, packed(l))
	}
	if r.Mode == OrderSize {
		for p, l := range r.Sizes {
			add(frameSizes, p, packed(l))
		}
	}
	for p, l := range r.Intr {
		add(frameIntr, p, packed(l))
	}
	for p := 0; p < r.NProcs; p++ {
		add(frameIO, p, func(b []byte) []byte {
			vals := r.IO[p].Values()
			b = le.AppendUint32(b, uint32(len(vals)))
			for _, v := range vals {
				b = le.AppendUint64(b, v)
			}
			return b
		})
	}
	add(frameDMA, 0, packed(r.DMA))
	add(frameSlots, 0, func(b []byte) []byte {
		slots := r.Slots.Entries()
		b = le.AppendUint32(b, uint32(len(slots)))
		for _, e := range slots {
			b = le.AppendUint64(b, e.Slot)
			b = le.AppendUint16(b, uint16(e.Proc))
		}
		return b
	})
	for i := range r.Checkpoints {
		add(frameCheckpoint, i, func(b []byte) []byte {
			return r.writeCheckpointBody(b, &r.Checkpoints[i])
		})
	}
	if r.Stratified != nil {
		add(frameStratified, 0, func(b []byte) []byte {
			b = le.AppendUint32(b, uint32(r.Stratified.Len()))
			b = le.AppendUint16(b, uint16(1)<<uint(r.Stratified.CounterBits())-1)
			for _, row := range r.Stratified.Strata() {
				for _, v := range row {
					b = le.AppendUint16(b, uint16(v))
				}
			}
			return b
		})
	}
	add(frameEnd, 0, func(b []byte) []byte { return b })
	return specs
}

// WriteToParallel serializes the recording in the v4 format, compressing
// frames on up to workers goroutines (0 sizes the pool to the host, 1
// runs fully inline). Output bytes are identical at any worker count;
// only wall-clock and peak memory differ.
func (r *Recording) WriteToParallel(w io.Writer, workers int) (int64, error) {
	// An indexed recording materializes before serialization walks it.
	if err := r.Materialize(workers); err != nil {
		return 0, err
	}
	hdr := make([]byte, 0, 4+2+1+2+4+8+8+8*r.NProcs+3*8)
	hdr = append(hdr, recMagic...)
	hdr = le.AppendUint16(hdr, recVersionV4)
	hdr = append(hdr, uint8(r.Mode))
	hdr = le.AppendUint16(hdr, uint16(r.NProcs))
	hdr = le.AppendUint32(hdr, uint32(r.ChunkSize))
	hdr = le.AppendUint64(hdr, r.Fingerprint)
	hdr = le.AppendUint64(hdr, r.FinalMemHash)
	for p := 0; p < r.NProcs; p++ {
		var ch uint64
		if p < len(r.ProcChains) {
			ch = r.ProcChains[p]
		}
		hdr = le.AppendUint64(hdr, ch)
	}
	hdr = le.AppendUint64(hdr, r.Stats.Insts)
	hdr = le.AppendUint64(hdr, r.Stats.Chunks)
	hdr = le.AppendUint64(hdr, r.Stats.Cycles)

	// The header and every frame are whole buffers, so they go straight
	// to w; the first error stops the stream.
	var n int64
	var err error
	write := func(p []byte) {
		if err == nil {
			var m int
			m, err = w.Write(p)
			n += int64(m)
		}
	}
	write(hdr)

	specs := r.frameSpecs()
	nw := runner.Workers(workers)
	if workers == 1 || nw == 1 || len(specs) <= 1 {
		// Inline: one frame in memory at a time.
		sc := getFrameScratch()
		for _, s := range specs {
			write(encodeFrame(s, sc))
			if err != nil {
				break
			}
		}
		putFrameScratch(sc)
	} else {
		// Bounded ordered pipeline: workers encode frames concurrently,
		// the semaphore caps frames in flight, and emission follows spec
		// order so the stream is deterministic.
		futures := make(chan chan []byte, nw)
		go func() {
			sem := make(chan struct{}, nw)
			for _, s := range specs {
				ch := make(chan []byte, 1)
				futures <- ch
				sem <- struct{}{}
				go func(s frameSpec, ch chan<- []byte) {
					defer func() { <-sem }()
					sc := getFrameScratch()
					ch <- encodeFrame(s, sc)
					putFrameScratch(sc)
				}(s, ch)
			}
			close(futures)
		}()
		for ch := range futures {
			write(<-ch)
		}
	}
	return n, err
}

// applyFrame parses one frame's raw (already decoded) payload into the
// recording. IndexRecording has already enforced the frame-structure
// rules — canonical kind order, contiguous shards, singletons at most
// once, section completeness — so per-processor and per-checkpoint
// frames arrive in shard order and simply append. A payload must be
// consumed exactly: bytes left after parsing make the frame corrupt.
func (r *Recording) applyFrame(kind uint8, shard uint32, raw []byte) error {
	d := &dec{b: raw}
	switch kind {
	case frameInitMem:
		raw := d.bytes(12 * int(d.u32()))
		if d.err == nil {
			img, ok := decodeImage(raw)
			if !ok {
				return corrupt("initial memory addresses do not strictly increase")
			}
			r.InitialMem = img
		}
	case framePI:
		entries := int(d.u32())
		buf, bits := d.packed()
		if d.err == nil {
			pi, err := dlog.UnpackPILog(r.NProcs, buf, bits, entries)
			if err != nil {
				return corrupt("PI log: %v", err)
			}
			r.PI = pi
		}
	case frameCS:
		_ = d.u32() // entry count (implied by the packed stream)
		buf, bits := d.packed()
		if d.err == nil {
			cs, err := dlog.UnpackCSLog(r.ChunkSize, buf, bits)
			if err != nil {
				return corrupt("CS log %d: %v", shard, err)
			}
			r.CS = append(r.CS, cs)
		}
	case frameSizes:
		count := int(d.u32())
		buf, bits := d.packed()
		if d.err == nil {
			sl, err := dlog.UnpackSizeLog(r.ChunkSize, buf, bits, count)
			if err != nil {
				return corrupt("size log %d: %v", shard, err)
			}
			r.Sizes = append(r.Sizes, sl)
		}
	case frameIntr:
		count := int(d.u32())
		buf, bits := d.packed()
		if d.err == nil {
			il, err := dlog.UnpackIntrLog(buf, bits, count)
			if err != nil {
				return corrupt("interrupt log %d: %v", shard, err)
			}
			r.Intr = append(r.Intr, il)
		}
	case frameIO:
		count := int(d.u32())
		if d.fits(count, 8) {
			vals := slices.Grow([]uint64(nil), count)[:count] // nil when empty, as recorded
			for i := range vals {
				vals[i] = d.u64()
			}
			r.IO = append(r.IO, dlog.NewIOLog(vals))
		}
	case frameDMA:
		count := int(d.u32())
		buf, bits := d.packed()
		if d.err == nil {
			dl, err := dlog.UnpackDMALog(buf, bits, count)
			if err != nil {
				return corrupt("DMA log: %v", err)
			}
			r.DMA = dl
		}
	case frameSlots:
		count := int(d.u32())
		if !d.fits(count, 8+2) {
			break
		}
		var prev uint64
		for i := 0; i < count; i++ {
			slot := d.u64()
			proc := int(d.u16())
			// SlotLog.Append panics on disorder; reject untrusted input
			// with an error instead.
			if i > 0 && slot <= prev {
				return corrupt("slot entries out of order at %d", i)
			}
			if proc >= r.NProcs {
				return corrupt("slot entry %d names processor %d of %d", i, proc, r.NProcs)
			}
			prev = slot
			r.Slots.Append(dlog.SlotEntry{Slot: slot, Proc: proc})
		}
	case frameCheckpoint:
		cp, err := r.readCheckpointBody(d, int(shard))
		if err != nil {
			return err
		}
		if d.err == nil {
			r.Checkpoints = append(r.Checkpoints, cp)
		}
	case frameStratified:
		strata := int(d.u32())
		maxChunk := int(d.u16())
		if d.err == nil && maxChunk < 1 {
			return corrupt("stratified log with max %d chunks per stratum", maxChunk)
		}
		cols := r.NProcs + 1
		if d.fits(strata, 2*cols) {
			cells := make([]int, strata*cols)
			for i := range cells {
				cells[i] = int(d.u16())
			}
			rows := make([][]int, strata)
			for i := range rows {
				rows[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
			}
			r.Stratified = stratifier.Rebuild(r.NProcs, maxChunk, rows)
		}
	default:
		return corrupt("unknown frame kind %d", kind)
	}
	if d.err != nil {
		return corrupt("frame kind %d shard %d truncated: %v", kind, shard, d.err)
	}
	if n := len(d.b); n != 0 {
		return corrupt("frame kind %d shard %d has %d bytes left after parsing", kind, shard, n)
	}
	return nil
}

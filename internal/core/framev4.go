package core

import (
	"hash/crc32"
	"io"
	"math"
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
// The encoder mirrors the decoder: appendPayload builds what applyFrame
// parses, and frameCount's rule lists the frames for both. A save
// encodes its frames on runner.Map's workers, then writes the header and
// the frames in canonical order, so the output is byte-identical at any
// worker count; it holds its encoded frames, about one container's size,
// next to the decoded recording it already holds. Loading indexes the
// frames (IndexRecording, which enforces the frame-structure rules) and
// decodes them on a worker pool when the recording is first needed.
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

// frameCount is the count rule: how many frames of a kind a container
// of the mode and processor count holds. Checkpoint and stratified
// frames vary with the recording (exact is false): a container holds at
// most n of them. It drives the encoder's frame list (frameIDs) and the
// index pass's structure checks alike.
func frameCount(kind uint8, mode Mode, nprocs int) (n int, exact bool) {
	switch {
	case kind == framePI && mode == PicoLog, kind == frameSizes && mode != OrderSize:
		return 0, true
	case kind == frameCS || kind == frameSizes || kind == frameIntr || kind == frameIO:
		return nprocs, true
	case kind == frameCheckpoint:
		return math.MaxInt, false
	case kind == frameStratified:
		return 1, false
	}
	return 1, true
}

// frameID names one frame of the canonical sequence.
type frameID struct {
	kind  uint8
	shard uint32
}

// frameIDs lists the recording's frames in canonical order: frameCount
// of each kind, and of the kinds that vary, as many as the recording
// carries.
func (r *Recording) frameIDs() []frameID {
	ids := make([]frameID, 0, 6+4*r.NProcs+len(r.Checkpoints))
	for kind := uint8(frameInitMem); kind <= frameEnd; kind++ {
		n, _ := frameCount(kind, r.Mode, r.NProcs)
		switch kind {
		case frameCheckpoint:
			n = len(r.Checkpoints)
		case frameStratified:
			if r.Stratified == nil {
				n = 0
			}
		}
		for shard := 0; shard < n; shard++ {
			ids = append(ids, frameID{kind, uint32(shard)})
		}
	}
	return ids
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

// encodeFrame turns a frame into its wire bytes: build the raw payload,
// compress it if that is a net win, and prepend the frame header.
func (r *Recording) encodeFrame(id frameID, sc *frameScratch) []byte {
	raw := r.appendPayload(sc.raw[:0], id)
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
	frame[0] = id.kind
	le.PutUint32(frame[1:5], id.shard)
	frame[5] = enc
	le.PutUint32(frame[6:10], uint32(bodyLen))
	le.PutUint32(frame[10:14], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
	return frame
}

// lz77Header parses and bounds an LZ77 frame body's header: the declared
// raw length and the token stream's bit length. The bits must fill the
// packed bytes after the header exactly, and the raw length must be one
// that many bits could decode to, so the index pass can trust it for the
// residency estimate before anything is decoded.
func lz77Header(body []byte) (rawLen, bits int, packed []byte, err error) {
	d := &dec{b: body}
	declared, nbits := d.u32(), d.u32()
	if d.err != nil {
		return 0, 0, nil, corrupt("LZ77 frame too short for its header")
	}
	if (uint64(nbits)+7)/8 != uint64(len(d.b)) {
		return 0, 0, nil, corrupt("LZ77 frame bit length %d does not match %d payload bytes", nbits, len(d.b))
	}
	rawLen, bits = int(declared), int(nbits)
	if rawLen > lz77.MaxDecodedLen(bits) {
		return 0, 0, nil, corrupt("LZ77 frame declares %d bytes, more than %d bits can decode to", rawLen, bits)
	}
	return rawLen, bits, d.b, nil
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
		rawLen, bits, packed, err := lz77Header(body)
		if err != nil {
			return nil, err
		}
		// The declared length caps the output, so a crafted token stream
		// is rejected before it can expand past it.
		raw, err := lz77.Decompress(packed, bits, rawLen)
		if err != nil {
			return nil, corrupt("LZ77 frame: %v", err)
		}
		if len(raw) != rawLen {
			return nil, corrupt("LZ77 frame decodes to %d bytes, declared %d", len(raw), rawLen)
		}
		return raw, nil
	default:
		return nil, corrupt("unknown frame encoding %d", enc)
	}
}

// WriteToParallel serializes the recording in the v4 format, encoding
// frames on up to workers goroutines (0 sizes the pool to the host, 1
// runs inline). Output bytes are identical at any worker count; only
// wall-clock differs.
func (r *Recording) WriteToParallel(w io.Writer, workers int) (int64, error) {
	// An indexed recording materializes before serialization walks it.
	if err := r.Materialize(workers); err != nil {
		return 0, err
	}
	ids := r.frameIDs()
	frames, _ := runner.Map(workers, len(ids), func(i int) ([]byte, error) {
		sc, ok := frameScratches.Get()
		if !ok {
			sc = &frameScratch{}
		}
		frame := r.encodeFrame(ids[i], sc)
		if cap(sc.raw)+cap(sc.lz.Bytes()) <= maxKeptScratch {
			frameScratches.Put(sc)
		}
		return frame, nil
	})
	// The header and every frame are whole buffers, so they go straight
	// to w; the first error stops the stream.
	m, err := w.Write(r.appendHeader(make([]byte, 0, 4+2+1+2+4+8+8+8*r.NProcs+3*8)))
	n := int64(m)
	for _, f := range frames {
		if err != nil {
			break
		}
		m, err = w.Write(f)
		n += int64(m)
	}
	return n, err
}

// appendHeader appends the container header; readHeader mirrors it.
func (r *Recording) appendHeader(b []byte) []byte {
	b = append(b, recMagic...)
	b = le.AppendUint16(b, recVersionV4)
	b = append(b, uint8(r.Mode))
	b = le.AppendUint16(b, uint16(r.NProcs))
	b = le.AppendUint32(b, uint32(r.ChunkSize))
	b = le.AppendUint64(b, r.Fingerprint)
	b = le.AppendUint64(b, r.FinalMemHash)
	for p := 0; p < r.NProcs; p++ {
		var ch uint64
		if p < len(r.ProcChains) {
			ch = r.ProcChains[p]
		}
		b = le.AppendUint64(b, ch)
	}
	b = le.AppendUint64(b, r.Stats.Insts)
	b = le.AppendUint64(b, r.Stats.Chunks)
	return le.AppendUint64(b, r.Stats.Cycles)
}

// appendPacked appends a bit-packed log's payload: entry count, bit
// length, bytes. pack is the log's AppendPack, which packs straight into
// b behind the bit length it then fills in. dec.packed reads the last
// two back.
func appendPacked(b []byte, count int, pack func([]byte) ([]byte, int)) []byte {
	b = le.AppendUint32(b, uint32(count))
	at := len(b)
	b, bits := pack(le.AppendUint32(b, 0))
	le.PutUint32(b[at:], uint32(bits))
	return b
}

// appendPayload appends frame id's raw (pre-compression) payload to b.
// It mirrors applyFrame case for case. It only reads the recording, so
// frames encode concurrently.
func (r *Recording) appendPayload(b []byte, id frameID) []byte {
	switch id.kind {
	case frameInitMem:
		b = appendImage(le.AppendUint32(b, uint32(len(r.InitialMem))), r.InitialMem)
	case framePI:
		b = appendPacked(b, r.PI.Len(), r.PI.AppendPack)
	case frameCS:
		b = appendPacked(b, r.CS[id.shard].Len(), r.CS[id.shard].AppendPack)
	case frameSizes:
		b = appendPacked(b, r.Sizes[id.shard].Len(), r.Sizes[id.shard].AppendPack)
	case frameIntr:
		b = appendPacked(b, r.Intr[id.shard].Len(), r.Intr[id.shard].AppendPack)
	case frameIO:
		vals := r.IO[id.shard].Values()
		b = le.AppendUint32(b, uint32(len(vals)))
		for _, v := range vals {
			b = le.AppendUint64(b, v)
		}
	case frameDMA:
		b = appendPacked(b, r.DMA.Len(), r.DMA.AppendPack)
	case frameSlots:
		slots := r.Slots.Entries()
		b = le.AppendUint32(b, uint32(len(slots)))
		for _, e := range slots {
			b = le.AppendUint64(b, e.Slot)
			b = le.AppendUint16(b, uint16(e.Proc))
		}
	case frameCheckpoint:
		b = r.writeCheckpointBody(b, &r.Checkpoints[id.shard])
	case frameStratified:
		b = le.AppendUint32(b, uint32(r.Stratified.Len()))
		b = le.AppendUint16(b, uint16(1)<<uint(r.Stratified.CounterBits())-1)
		for _, row := range r.Stratified.Strata() {
			for _, v := range row {
				b = le.AppendUint16(b, uint16(v))
			}
		}
	}
	return b // frameEnd: empty
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

package core

import (
	"hash/crc32"

	"delorean/internal/dlog"
	"delorean/internal/lz77"
	"delorean/internal/runner"
)

// On-demand residency: IndexRecording splits loading into a cheap
// index pass — parse and CRC-check every frame, retaining the compressed
// payloads as zero-copy subslices of the container — and deferred
// materialization (Materialize) that decodes every frame the first time
// anything needs the recording's contents. An indexed recording is
// either fully compressed or fully decoded. Release drops the decoded
// structures back to the retained frames, so a byte-budgeted store can
// evict a resident recording to its canonical bytes and rematerialize
// it later with a bit-identical result.
//
// Locking: mu guards the materialization state. Replays share no other
// state: each rolls its own memory to the checkpoint image it starts
// from.

// lazyFrame is one retained v4 frame: header fields plus the encoded
// payload, which aliases the container bytes handed to IndexRecording.
type lazyFrame struct {
	kind   uint8
	shard  uint32
	enc    uint8
	crc    uint32
	body   []byte
	rawLen int
}

// IndexRecording parses a v4 container from data without decoding it:
// the header is read, every frame header is validated and every payload
// CRC-checked, but payloads stay compressed, retained as subslices of
// data. The returned recording decodes them all on first use
// (Materialize) — callers must not mutate data while the recording is
// alive.
//
// This is the one place the frame-structure rules are enforced: known
// kinds in canonical order, contiguous shards per kind, singleton kinds
// at most once, every required section present, an empty end frame,
// and nothing after it. Materialization only decodes payloads.
func IndexRecording(data []byte) (*Recording, error) {
	d := &dec{b: data}
	r, err := readHeader(d)
	if err != nil {
		return nil, err
	}
	off := len(data) - len(d.b)

	frames := []lazyFrame{}
	var counts [frameEnd + 1]uint32
	var lastKind uint8
	var est int64
	for {
		if off+frameHeaderLen > len(data) {
			return nil, corrupt("truncated frame header at offset %d", off)
		}
		f := lazyFrame{
			kind:  data[off],
			shard: le.Uint32(data[off+1 : off+5]),
			enc:   data[off+5],
			crc:   le.Uint32(data[off+10 : off+14]),
		}
		n := le.Uint32(data[off+6 : off+10])
		off += frameHeaderLen
		if n > maxFramePayload {
			return nil, corrupt("frame claims %d payload bytes", n)
		}
		if off+int(n) > len(data) {
			return nil, corrupt("truncated frame payload at offset %d", off)
		}
		f.body = data[off : off+int(n) : off+int(n)]
		off += int(n)
		if crc32.ChecksumIEEE(f.body) != f.crc {
			return nil, corrupt("frame payload CRC mismatch")
		}
		if f.kind < frameInitMem || f.kind > frameEnd {
			return nil, corrupt("unknown frame kind %d", f.kind)
		}
		if f.kind < lastKind {
			return nil, corrupt("frame kind %d after kind %d: sections out of canonical order", f.kind, lastKind)
		}
		lastKind = f.kind
		if f.shard != counts[f.kind] {
			return nil, corrupt("frame kind %d shard %d arrived with %d indexed", f.kind, f.shard, counts[f.kind])
		}
		if f.shard > 0 && singletonFrame(f.kind) {
			return nil, corrupt("duplicate frame of singleton kind %d", f.kind)
		}
		counts[f.kind]++
		switch f.enc {
		case encRaw:
			f.rawLen = len(f.body)
		case encLZ77:
			if len(f.body) < 8 {
				return nil, corrupt("LZ77 frame too short for its header")
			}
			f.rawLen = int(le.Uint32(f.body[0:4]))
			// The declared length feeds the residency estimate before
			// anything is decoded, so it must be one the payload could
			// actually produce.
			bits := int(le.Uint32(f.body[4:8]))
			if bits > 8*(len(f.body)-8) {
				return nil, corrupt("LZ77 frame claims %d bits in %d payload bytes", bits, len(f.body)-8)
			}
			if f.rawLen > lz77.MaxDecodedLen(bits) {
				return nil, corrupt("LZ77 frame declares %d bytes, more than %d bits can decode to", f.rawLen, bits)
			}
		default:
			return nil, corrupt("unknown frame encoding %d", f.enc)
		}
		if f.kind == frameEnd {
			if len(f.body) != 0 || f.rawLen != 0 {
				return nil, corrupt("end frame carries %d payload bytes", len(f.body))
			}
			if off != len(data) {
				return nil, corrupt("trailing data after end frame")
			}
			break
		}
		est += int64(f.rawLen)
		frames = append(frames, f)
	}

	// Section completeness: a malformed container fails at index time,
	// not mid-replay.
	if counts[frameInitMem] != 1 || counts[frameDMA] != 1 || counts[frameSlots] != 1 {
		return nil, corrupt("recording missing a singleton frame (init-mem %d, DMA %d, slots %d)",
			counts[frameInitMem], counts[frameDMA], counts[frameSlots])
	}
	if int(counts[frameCS]) != r.NProcs {
		return nil, corrupt("recording has %d CS logs for %d processors", counts[frameCS], r.NProcs)
	}
	wantSizes := 0
	if r.Mode == OrderSize {
		wantSizes = r.NProcs
	}
	if int(counts[frameSizes]) != wantSizes {
		return nil, corrupt("recording has %d size logs for %d expected", counts[frameSizes], wantSizes)
	}
	if int(counts[frameIntr]) != r.NProcs || int(counts[frameIO]) != r.NProcs {
		return nil, corrupt("recording has %d interrupt and %d IO logs for %d processors",
			counts[frameIntr], counts[frameIO], r.NProcs)
	}

	r.frames = frames
	r.ckFrames = int(counts[frameCheckpoint])
	r.sizeEst = est
	return r, nil
}

// Materialize decodes every retained frame of an indexed recording,
// fanning the CPU-heavy LZ77/CRC work across workers (0: host default,
// 1: inline), applies the frames in stream order and validates the
// result. It is a no-op on a freshly recorded recording or once
// materialization succeeded; a decode failure is cached and returned to
// every subsequent caller. Safe for concurrent use.
func (r *Recording) Materialize(workers int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frames == nil || r.done {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	if err := r.decodeFrames(workers); err != nil {
		r.resetLocked()
		r.err = err
		return err
	}
	r.done = true
	return nil
}

// decodeFrames decodes and applies every retained frame. The index pass
// already checked the frame structure, so the frames arrive in
// canonical order. Caller holds mu.
func (r *Recording) decodeFrames(workers int) error {
	raws, err := runner.Map(workers, len(r.frames), func(i int) ([]byte, error) {
		f := &r.frames[i]
		return decodeFramePayload(f.enc, f.crc, f.body)
	})
	if err != nil {
		return err
	}
	r.Checkpoints = make([]IntervalCheckpoint, 0, r.ckFrames)
	for i, f := range r.frames {
		if err := r.applyFrame(f.kind, f.shard, raws[i]); err != nil {
			return err
		}
	}
	return r.Validate()
}

// resetLocked drops every decoded structure back to the post-header
// state, so a failed or released materialization leaves no partially
// applied frame behind. Caller holds mu.
func (r *Recording) resetLocked() {
	r.InitialMem = nil
	r.PI = nil
	r.CS = nil
	r.Sizes = nil
	r.Stratified = nil
	r.Intr = nil
	r.IO = nil
	r.DMA = &dlog.DMALog{}
	r.Slots = &dlog.SlotLog{}
	r.Checkpoints = nil
}

// Release evicts an indexed recording's decoded state back to the
// retained compressed frames; the next Materialize rebuilds an
// identical recording. No-op for freshly recorded recordings (there are
// no frames to fall back to). The caller must guarantee no replay of
// this recording is in flight (the server's residency manager only
// releases unpinned entries).
func (r *Recording) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frames == nil {
		return
	}
	r.resetLocked()
	r.done, r.err = false, nil
}

// CheckpointCount reports how many interval checkpoints the recording
// carries without decoding an indexed recording.
func (r *Recording) CheckpointCount() int {
	if r.frames != nil {
		return r.ckFrames
	}
	return len(r.Checkpoints)
}

// Materialized reports whether the recording is decoded (always true
// for freshly recorded recordings).
func (r *Recording) Materialized() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames == nil || r.done
}

// MaterializedSizeEstimate returns the summed raw (decompressed) frame
// payload bytes of an indexed recording — the residency manager's cost
// estimate for keeping it materialized. Zero for freshly recorded
// recordings. IndexRecording bounds each LZ77 frame's declared length by
// what its payload could decode to (lz77.MaxDecodedLen), so the estimate
// is at most ~86x the container size.
func (r *Recording) MaterializedSizeEstimate() int64 {
	return r.sizeEst
}

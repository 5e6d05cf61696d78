package core

import (
	"hash/crc32"

	"delorean/internal/dlog"
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
	kind  uint8
	shard uint32
	enc   uint8
	crc   uint32
	body  []byte
}

// IndexRecording parses a v4 container from data without decoding it:
// the header is read, every frame header is validated and every payload
// CRC-checked, but payloads stay compressed, retained as subslices of
// data. The returned recording decodes them all on first use
// (Materialize) — callers must not mutate data while the recording is
// alive.
//
// This is the one place the frame-structure rules are enforced: known
// kinds in canonical order, contiguous shards per kind, as many frames
// of each kind as frameCount gives for the header's mode and processor
// count, LZ77 headers that lz77Header accepts, an empty end frame, and
// nothing after it. Materialization only decodes payloads.
func IndexRecording(data []byte) (*Recording, error) {
	d := &dec{b: data}
	r, err := readHeader(d)
	if err != nil {
		return nil, err
	}

	frames := []lazyFrame{}
	var counts [frameEnd + 1]uint32
	var lastKind uint8
	var est int64
	for {
		f := lazyFrame{kind: d.u8(), shard: d.u32(), enc: d.u8()}
		n := d.u32()
		f.crc = d.u32()
		if d.err != nil {
			return nil, corrupt("truncated frame header")
		}
		if n > maxFramePayload {
			return nil, corrupt("frame claims %d payload bytes", n)
		}
		if f.body = d.bytes(int(n)); d.err != nil {
			return nil, corrupt("truncated frame payload")
		}
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
		if most, _ := frameCount(f.kind, r.Mode, r.NProcs); int(f.shard) >= most {
			return nil, corrupt("frame kind %d shard %d: a %s container of %d processors holds %d",
				f.kind, f.shard, r.Mode, r.NProcs, most)
		}
		counts[f.kind]++
		rawLen := len(f.body)
		switch f.enc {
		case encRaw:
		case encLZ77:
			// The declared length feeds the residency estimate before
			// anything is decoded, so lz77Header bounds it.
			if rawLen, _, _, err = lz77Header(f.body); err != nil {
				return nil, err
			}
		default:
			return nil, corrupt("unknown frame encoding %d", f.enc)
		}
		if f.kind == frameEnd {
			if len(f.body) != 0 {
				return nil, corrupt("end frame carries %d payload bytes", len(f.body))
			}
			if len(d.b) != 0 {
				return nil, corrupt("trailing data after end frame")
			}
			break
		}
		est += int64(rawLen)
		frames = append(frames, f)
	}

	// Section completeness: a malformed container fails at index time,
	// not mid-replay.
	for kind := uint8(frameInitMem); kind < frameEnd; kind++ {
		if want, exact := frameCount(kind, r.Mode, r.NProcs); exact && int(counts[kind]) != want {
			return nil, corrupt("recording has %d frames of kind %d, want %d in a %s container of %d processors",
				counts[kind], kind, want, r.Mode, r.NProcs)
		}
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

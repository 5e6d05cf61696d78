package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/lz77"
	"delorean/internal/rng"
	"delorean/internal/sim"
)

// fullFatV4Recording records with every optional container section
// populated — PI log, all per-proc logs, interrupts, I/O, DMA, slots,
// checkpoints, and the stratified log — so the frame sequence exercises
// every frame kind.
func fullFatV4Recording(t *testing.T, mode Mode) (*Recording, sim.Config, []*isa.Program) {
	t.Helper()
	cfg := testConfig(4, 250)
	prog4 := replicateProgs(systemProgram(120), 4)
	devs := device.New(42)
	devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
	devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)
	rec := record(t, cfg, mode, prog4, devs, RecordOptions{
		CheckpointEvery: 25,
		StratifyMax:     3,
	})
	return rec, cfg, prog4
}

// TestWriteToParallelByteIdentity: the v4 stream must be byte-identical
// at every worker count — parallel compression may only change wall
// clock, never the artifact.
func TestWriteToParallelByteIdentity(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		t.Run(mode.String(), func(t *testing.T) {
			rec, _, _ := fullFatV4Recording(t, mode)
			var ref bytes.Buffer
			if _, err := rec.WriteTo(&ref); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				var buf bytes.Buffer
				n, err := rec.WriteToParallel(&buf, workers)
				if err != nil {
					t.Fatalf("WriteToParallel(%d): %v", workers, err)
				}
				if n != int64(buf.Len()) {
					t.Fatalf("WriteToParallel(%d) reported %d bytes, wrote %d", workers, n, buf.Len())
				}
				if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
					t.Fatalf("WriteToParallel(%d) bytes differ from WriteTo (%d vs %d bytes)",
						workers, buf.Len(), ref.Len())
				}
			}
		})
	}
}

// TestReadRecordingParallelMatchesSequential: parallel frame decoding
// must reconstruct the same recording as the sequential path. Equality
// is checked by re-serializing, which covers every section.
func TestReadRecordingParallelMatchesSequential(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, OrderOnly)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		got, err := ReadRecordingParallel(bytes.NewReader(wire.Bytes()), workers)
		if err != nil {
			t.Fatalf("ReadRecordingParallel(%d): %v", workers, err)
		}
		var out bytes.Buffer
		if _, err := got.WriteToParallel(&out, 1); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out.Bytes()
		} else if !bytes.Equal(ref, out.Bytes()) {
			t.Fatalf("recording loaded with %d workers re-serializes differently", workers)
		}
		if !bytes.Equal(wire.Bytes(), out.Bytes()) {
			t.Fatalf("round trip with %d decode workers is not byte-stable", workers)
		}
	}
}

// v4CommonHeaderLen returns the byte offset where the frame sequence
// starts: magic, version, mode, nprocs, chunk size, fingerprints, chain
// digests, and stats words.
func v4CommonHeaderLen(nprocs int) int {
	return 4 + 2 + 1 + 2 + 4 + 8 + 8 + nprocs*8 + 24
}

// TestV4RejectsCorruptFrames: every byte of the frame section is covered
// by either a validated header field or the payload CRC, so any single
// bit flip after the common header must surface as ErrCorruptLog — never
// a panic, never a silently different recording.
func TestV4RejectsCorruptFrames(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, OrderOnly)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	full := wire.Bytes()
	start := v4CommonHeaderLen(rec.NProcs)
	stride := len(full) / 200
	if stride < 1 {
		stride = 1
	}
	for off := start; off < len(full); off += stride {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		got, err := ReadRecording(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at offset %d accepted (recording %v)", off, got.Mode)
		}
		if !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("flip at offset %d: error %v is not ErrCorruptLog", off, err)
		}
	}
}

// TestV4RejectsTruncation: every proper prefix of a v4 stream must be
// rejected as corrupt, with sequential and parallel decoding alike.
func TestV4RejectsTruncation(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, PicoLog)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	full := wire.Bytes()
	stride := len(full) / 150
	if stride < 1 {
		stride = 1
	}
	for _, workers := range []int{1, 4} {
		for cut := 0; cut < len(full); cut += stride {
			_, err := ReadRecordingParallel(bytes.NewReader(full[:cut]), workers)
			if err == nil {
				t.Fatalf("truncation at %d of %d accepted (workers=%d)", cut, len(full), workers)
			}
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("truncation at %d (workers=%d): error %v is not ErrCorruptLog", cut, workers, err)
			}
		}
		// The last byte matters too.
		if _, err := ReadRecordingParallel(bytes.NewReader(full[:len(full)-1]), workers); err == nil {
			t.Fatalf("dropping the final byte accepted (workers=%d)", workers)
		}
	}
}

// v4Frame is one parsed wire frame: its kind and shard plus the full
// byte span (header and payload) from the original stream.
type v4Frame struct {
	kind  uint8
	shard uint32
	raw   []byte
}

// parseV4Frames splits a v4 stream into the common header and the frame
// sequence (end frame included) by walking the frame headers — CRCs stay
// intact, so reassembled streams differ from the original only in frame
// arrangement.
func parseV4Frames(t *testing.T, full []byte, nprocs int) ([]byte, []v4Frame) {
	t.Helper()
	off := v4CommonHeaderLen(nprocs)
	header := full[:off]
	var frames []v4Frame
	for off < len(full) {
		if off+frameHeaderLen > len(full) {
			t.Fatalf("frame header at %d overruns the %d-byte stream", off, len(full))
		}
		plen := int(binary.LittleEndian.Uint32(full[off+6 : off+10]))
		end := off + frameHeaderLen + plen
		if end > len(full) {
			t.Fatalf("frame at %d claims %d payload bytes past the end", off, plen)
		}
		frames = append(frames, v4Frame{
			kind:  full[off],
			shard: binary.LittleEndian.Uint32(full[off+1 : off+5]),
			raw:   full[off:end],
		})
		off = end
	}
	return header, frames
}

// spliceV4 reassembles a stream from a header and a frame arrangement.
func spliceV4(header []byte, frames []v4Frame) []byte {
	out := append([]byte(nil), header...)
	for _, f := range frames {
		out = append(out, f.raw...)
	}
	return out
}

// TestV4RejectsDuplicateShard: replaying any frame a second time —
// singleton kinds and per-processor/per-checkpoint shards alike — must
// surface as ErrCorruptLog at every decode worker count. Every frame is
// individually CRC-clean (the CRC covers the payload, not the header),
// so only the duplicate checks and shard-contiguity checks stand
// between a spliced stream and silent acceptance.
func TestV4RejectsDuplicateShard(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, OrderOnly)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	header, frames := parseV4Frames(t, wire.Bytes(), rec.NProcs)
	if len(frames) < 3 {
		t.Fatalf("recording serialized to only %d frames", len(frames))
	}
	// Sanity: the unmodified arrangement still loads.
	if _, err := ReadRecording(bytes.NewReader(spliceV4(header, frames))); err != nil {
		t.Fatalf("reassembled stream does not load: %v", err)
	}
	for i, f := range frames[:len(frames)-1] { // the end frame terminates reading
		mut := append(append([]v4Frame(nil), frames[:i+1]...), frames[i:]...)
		for _, workers := range []int{1, 4} {
			_, err := ReadRecordingParallel(bytes.NewReader(spliceV4(header, mut)), workers)
			if err == nil {
				t.Fatalf("duplicated frame %d (kind %d shard %d) accepted (workers=%d)",
					i, f.kind, f.shard, workers)
			}
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("duplicated frame %d (kind %d shard %d, workers=%d): error %v is not ErrCorruptLog",
					i, f.kind, f.shard, workers, err)
			}
		}
	}
	// A singleton frame duplicated and relabelled shard 1 passes shard
	// contiguity; only the at-most-once rule rejects it.
	relabelled := 0
	for i, f := range frames {
		if f.kind != framePI && f.kind != frameStratified {
			continue
		}
		relabelled++
		dup := v4Frame{kind: f.kind, shard: 1, raw: append([]byte(nil), f.raw...)}
		binary.LittleEndian.PutUint32(dup.raw[1:5], 1)
		mut := append(append(append([]v4Frame(nil), frames[:i+1]...), dup), frames[i+1:]...)
		for _, workers := range []int{1, 4} {
			_, err := ReadRecordingParallel(bytes.NewReader(spliceV4(header, mut)), workers)
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("kind %d frame relabelled shard 1 (workers=%d): err = %v, want ErrCorruptLog",
					f.kind, workers, err)
			}
		}
	}
	if relabelled != 2 {
		t.Fatalf("found %d PI/stratified frames, want 2", relabelled)
	}
}

// TestV4RejectsOutOfOrderKinds: transposing adjacent frames of different
// kinds breaks the canonical section order and must surface as
// ErrCorruptLog. This is the gap shard contiguity alone leaves open:
// whole singleton sections (say DMA and Slots) can trade places with
// every per-kind check still passing, and the completeness check only
// verifies section presence — only the non-decreasing-kind check
// catches it.
func TestV4RejectsOutOfOrderKinds(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, OrderOnly)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	header, frames := parseV4Frames(t, wire.Bytes(), rec.NProcs)
	swaps := 0
	for i := 0; i+1 < len(frames); i++ {
		a, b := frames[i], frames[i+1]
		if a.kind == b.kind {
			continue
		}
		swaps++
		mut := append([]v4Frame(nil), frames...)
		mut[i], mut[i+1] = b, a
		for _, workers := range []int{1, 4} {
			_, err := ReadRecordingParallel(bytes.NewReader(spliceV4(header, mut)), workers)
			if err == nil {
				t.Fatalf("kinds %d and %d transposed at frame %d accepted (workers=%d)",
					a.kind, b.kind, i, workers)
			}
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("kinds %d and %d transposed at frame %d (workers=%d): error %v is not ErrCorruptLog",
					a.kind, b.kind, i, workers, err)
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no adjacent different-kind frame pairs to transpose")
	}
}

// TestLZ77FrameBombRejected: an LZ77 frame that declares 16 raw bytes
// but whose token stream expands past 1 MiB is rejected once the decoder
// crosses the declared length, not after decoding everything.
func TestLZ77FrameBombRejected(t *testing.T) {
	packed, bits := lz77.Compress(make([]byte, 2<<20))
	body := make([]byte, 8, 8+len(packed))
	binary.LittleEndian.PutUint32(body[0:4], 16)
	binary.LittleEndian.PutUint32(body[4:8], uint32(bits))
	body = append(body, packed[:(bits+7)/8]...)
	crc := crc32.ChecksumIEEE(body)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeFramePayload(encLZ77, crc, body)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("bomb frame: err = %v, want ErrCorruptLog", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("rejecting the bomb allocated %d bytes, want under 64 KiB", alloc)
	}
}

// TestV4ParallelLoadSurfacesCorruption: the concurrent decode path must
// report a CRC failure deterministically even when later frames decode
// fine.
func TestV4ParallelLoadSurfacesCorruption(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, OrderOnly)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), wire.Bytes()...)
	// Corrupt a byte deep in the stream so several frames precede it.
	off := v4CommonHeaderLen(rec.NProcs) + (len(full)-v4CommonHeaderLen(rec.NProcs))/2
	full[off] ^= 0xFF
	for i := 0; i < 5; i++ {
		_, err := ReadRecordingParallel(bytes.NewReader(full), 8)
		if err == nil {
			t.Fatal("corrupted stream accepted by parallel reader")
		}
		if !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("parallel reader error %v is not ErrCorruptLog", err)
		}
	}
}

// rawV4Frame builds a frame carrying payload uncompressed, whatever the
// writer's compression decision would be.
func rawV4Frame(kind uint8, shard uint32, payload []byte) []byte {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	frame[0] = kind
	binary.LittleEndian.PutUint32(frame[1:5], shard)
	frame[5] = encRaw
	binary.LittleEndian.PutUint32(frame[6:10], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[10:14], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestV4RejectsTrailingPayloadBytes: a frame payload must be consumed
// exactly. Every frame of a full-featured recording, checkpoints
// included, is re-emitted raw: as it is it still loads, and with three
// junk bytes after the payload (length and CRC fixed up, so only the
// parse can notice) materialization must fail with ErrCorruptLog.
func TestV4RejectsTrailingPayloadBytes(t *testing.T) {
	rec, _, _ := fullFatV4Recording(t, OrderSize)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	header, frames := parseV4Frames(t, wire.Bytes(), rec.NProcs)
	seen := make(map[uint8]bool)
	for i, f := range frames[:len(frames)-1] { // the end frame carries no payload
		seen[f.kind] = true
		payload, err := decodeFramePayload(f.raw[5], binary.LittleEndian.Uint32(f.raw[10:14]), f.raw[frameHeaderLen:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for _, junk := range [][]byte{nil, {0xA5, 0x5A, 0xFF}} {
			mut := append([]v4Frame(nil), frames...)
			mut[i].raw = rawV4Frame(f.kind, f.shard, append(append([]byte(nil), payload...), junk...))
			lazy, err := IndexRecording(spliceV4(header, mut))
			if err != nil {
				t.Fatalf("kind %d shard %d re-emitted raw with %d junk bytes: IndexRecording: %v", f.kind, f.shard, len(junk), err)
			}
			err = lazy.Materialize(1)
			if junk == nil && err != nil {
				t.Fatalf("kind %d shard %d re-emitted raw does not load: %v", f.kind, f.shard, err)
			}
			if junk != nil && !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("kind %d shard %d with %d junk bytes: Materialize = %v, want ErrCorruptLog", f.kind, f.shard, len(junk), err)
			}
		}
	}
	for kind := uint8(frameInitMem); kind < frameEnd; kind++ {
		if !seen[kind] {
			t.Errorf("fixture serialized no frame of kind %d", kind)
		}
	}
}

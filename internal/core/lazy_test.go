package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"delorean/internal/lz77"
)

// verdictKey flattens the comparable core of a ReplayResult (Stats holds
// slices, so the struct itself is not comparable).
type verdictKey struct {
	fp, mem, insts, chunks, cycles uint64
	converged                      bool
}

func keyOf(r ReplayResult) verdictKey {
	return verdictKey{r.Fingerprint, r.MemHash, r.Stats.Insts, r.Stats.Chunks, r.Stats.Cycles, r.Stats.Converged}
}

// indexFixture saves a full-featured checkpointed recording as v4 bytes
// and returns the canonical container plus the eager recording and the
// replay ingredients.
func indexFixture(t *testing.T, mode Mode) ([]byte, *Recording, ReplayOptions, func(*Recording) (ReplayResult, error)) {
	t.Helper()
	rec, cfg, progs := fullFatV4Recording(t, mode)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	opts := ReplayOptions{}
	replay := func(r *Recording) (ReplayResult, error) {
		return Replay(r, ReplayConfig(cfg), progs, opts)
	}
	return buf.Bytes(), rec, opts, replay
}

// TestIndexRecordingReplayIdentity: an indexed recording's replay
// verdict must equal the eagerly loaded recording's, for sequential and
// segmented replay, before and after a Release/rematerialize cycle.
func TestIndexRecordingReplayIdentity(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		t.Run(mode.String(), func(t *testing.T) {
			data, eager, _, replay := indexFixture(t, mode)
			want, err := replay(eager)
			if err != nil {
				t.Fatalf("eager replay: %v", err)
			}

			lazy, err := IndexRecording(data)
			if err != nil {
				t.Fatalf("IndexRecording: %v", err)
			}
			if lazy.Materialized() {
				t.Fatal("freshly indexed recording claims to be materialized")
			}
			if lazy.MaterializedSizeEstimate() <= 0 {
				t.Fatal("indexed recording has no size estimate")
			}
			if got, want := lazy.CheckpointCount(), len(eager.Checkpoints); got != want {
				t.Fatalf("CheckpointCount before materialization: %d, want %d", got, want)
			}
			got, err := replay(lazy)
			if err != nil {
				t.Fatalf("lazy replay: %v", err)
			}
			if keyOf(got) != keyOf(want) {
				t.Fatalf("lazy replay verdict differs:\n got %+v\nwant %+v", got, want)
			}

			// Release and replay again: bit-identical rematerialization.
			lazy.Release()
			if lazy.Materialized() {
				t.Fatal("released recording claims to be materialized")
			}
			got, err = replay(lazy)
			if err != nil {
				t.Fatalf("replay after release: %v", err)
			}
			if keyOf(got) != keyOf(want) {
				t.Fatalf("post-release replay verdict differs:\n got %+v\nwant %+v", got, want)
			}

			// Re-serialization of the rematerialized recording reproduces
			// the canonical bytes.
			var out bytes.Buffer
			if _, err := lazy.WriteTo(&out); err != nil {
				t.Fatalf("re-serialize: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("re-serialized indexed recording differs from canonical bytes")
			}
		})
	}
}

// TestIndexRecordingSegmented: segmented replay of an indexed recording
// materializes it on demand and stays bit-identical to the eager
// recording's segmented verdict.
func TestIndexRecordingSegmented(t *testing.T) {
	data, eager, _, _ := indexFixture(t, OrderOnly)
	_, cfg, progs := fullFatV4Recording(t, OrderOnly)
	opts := ReplayOptions{ReplayParallel: 2}
	want, err := Replay(eager, ReplayConfig(cfg), progs, opts)
	if err != nil {
		t.Fatalf("eager segmented replay: %v", err)
	}
	lazy, err := IndexRecording(data)
	if err != nil {
		t.Fatalf("IndexRecording: %v", err)
	}
	got, err := Replay(lazy, ReplayConfig(cfg), progs, opts)
	if err != nil {
		t.Fatalf("lazy segmented replay: %v", err)
	}
	if keyOf(got) != keyOf(want) {
		t.Fatalf("segmented verdict differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestIndexRecordingReplayMaterializesAll: an indexed recording is
// either compressed or fully decoded — a sequential replay, which needs
// no checkpoint, still leaves every checkpoint decoded.
func TestIndexRecordingReplayMaterializesAll(t *testing.T) {
	data, eager, _, replay := indexFixture(t, OrderOnly)
	lazy, err := IndexRecording(data)
	if err != nil {
		t.Fatalf("IndexRecording: %v", err)
	}
	if len(lazy.Checkpoints) != 0 {
		t.Fatalf("indexing decoded %d checkpoints", len(lazy.Checkpoints))
	}
	if _, err := replay(lazy); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !lazy.Materialized() {
		t.Fatal("replayed recording is not materialized")
	}
	if got, want := len(lazy.Checkpoints), len(eager.Checkpoints); got != want || want == 0 {
		t.Fatalf("sequential replay decoded %d checkpoints, want %d (> 0)", got, want)
	}
}

// TestIndexRecordingCorruption: the index pass catches flipped bytes
// (every payload is CRC-checked), truncation, an LZ77 header whose bit
// length does not fill its payload and a PI frame that contradicts the
// mode; corruption that only manifests on decode is caught, and cached,
// by materialization.
func TestIndexRecordingCorruption(t *testing.T) {
	data, rec, _, replay := indexFixture(t, OrderOnly)

	t.Run("flipped payload byte", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0x40
		if _, err := IndexRecording(bad); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("IndexRecording(flipped) = %v, want ErrCorruptLog", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := IndexRecording(data[:len(data)-3]); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("IndexRecording(truncated) = %v, want ErrCorruptLog", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(bytes.Clone(data), 0xAB)
		if _, err := IndexRecording(bad); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("IndexRecording(trailing) = %v, want ErrCorruptLog", err)
		}
	})
	t.Run("LZ77 bit length short of its payload", func(t *testing.T) {
		_, frames := parseV4Frames(t, data, rec.NProcs)
		for _, f := range frames {
			if f.raw[5] == encLZ77 {
				// One byte more than the declared bits occupy.
				body := append(bytes.Clone(f.raw[frameHeaderLen:]), 0)
				if _, err := IndexRecording(withLZ77Body(t, data, rec.NProcs, body)); !errors.Is(err, ErrCorruptLog) {
					t.Fatalf("IndexRecording(padded LZ77 payload) = %v, want ErrCorruptLog", err)
				}
				return
			}
		}
		t.Fatal("container has no LZ77 frame")
	})
	t.Run("PI frame missing in OrderOnly", func(t *testing.T) {
		header, frames := parseV4Frames(t, data, rec.NProcs)
		kept := slices.DeleteFunc(slices.Clone(frames), func(f v4Frame) bool { return f.kind == framePI })
		if len(kept) != len(frames)-1 {
			t.Fatalf("container has %d PI frames, want 1", len(frames)-len(kept))
		}
		if _, err := IndexRecording(spliceV4(header, kept)); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("IndexRecording(OrderOnly without PI) = %v, want ErrCorruptLog", err)
		}
	})
	t.Run("PI frame present in PicoLog", func(t *testing.T) {
		_, orderOnly := parseV4Frames(t, data, rec.NProcs)
		pico, _, _, _ := indexFixture(t, PicoLog)
		header, frames := parseV4Frames(t, pico, rec.NProcs)
		i := slices.IndexFunc(orderOnly, func(f v4Frame) bool { return f.kind == framePI })
		if i < 0 || frames[0].kind != frameInitMem {
			t.Fatal("fixtures do not have the expected frames")
		}
		withPI := slices.Insert(slices.Clone(frames), 1, orderOnly[i])
		if _, err := IndexRecording(spliceV4(header, withPI)); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("IndexRecording(PicoLog with PI) = %v, want ErrCorruptLog", err)
		}
	})
	t.Run("decode error is cached", func(t *testing.T) {
		// A consistent CRC over a corrupted LZ77 stream passes indexing
		// but fails materialization; the error must be sticky.
		lazy, err := IndexRecording(data)
		if err != nil {
			t.Fatalf("IndexRecording: %v", err)
		}
		// Sabotage a retained frame body after indexing, recomputing the
		// CRC so only the decode can notice. Pick the largest LZ77 frame.
		var victim *lazyFrame
		for i := range lazy.frames {
			f := &lazy.frames[i]
			if f.enc == encLZ77 && len(f.body) > 12 && (victim == nil || len(f.body) > len(victim.body)) {
				victim = f
			}
		}
		if victim == nil {
			t.Skip("no compressed frame large enough to sabotage")
		}
		victim.body = bytes.Clone(victim.body)
		victim.body[10] ^= 0xFF
		victim.crc = crc32.ChecksumIEEE(victim.body)
		if _, err := replay(lazy); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("replay of sabotaged frame = %v, want ErrCorruptLog", err)
		}
		if _, err := replay(lazy); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("second replay (cached error) = %v, want ErrCorruptLog", err)
		}
	})
}

// withLZ77Body returns a copy of the container data whose first LZ77
// frame carries body instead, with its length and CRC fixed up so only
// the payload's content is wrong.
func withLZ77Body(t *testing.T, data []byte, nprocs int, body []byte) []byte {
	t.Helper()
	header, frames := parseV4Frames(t, data, nprocs)
	for i, f := range frames {
		if f.raw[5] != encLZ77 {
			continue
		}
		raw := append([]byte(nil), f.raw[:frameHeaderLen]...)
		binary.LittleEndian.PutUint32(raw[6:10], uint32(len(body)))
		binary.LittleEndian.PutUint32(raw[10:14], crc32.ChecksumIEEE(body))
		frames[i].raw = append(raw, body...)
		return spliceV4(header, frames)
	}
	t.Fatal("container has no LZ77 frame")
	return nil
}

// TestIndexRecordingRejectsDecodedLengthBomb: a frame's declared decoded
// length is trusted for the residency estimate before anything decodes,
// so a 16-byte LZ77 body claiming 2 GiB must fail indexing, as must a
// bit length longer than the payload holding it.
func TestIndexRecordingRejectsDecodedLengthBomb(t *testing.T) {
	data, rec, _, _ := indexFixture(t, OrderOnly)
	lzBody := func(rawLen, bits uint32, packed int) []byte {
		b := make([]byte, 8+packed)
		binary.LittleEndian.PutUint32(b[0:4], rawLen)
		binary.LittleEndian.PutUint32(b[4:8], bits)
		return b
	}
	for name, body := range map[string][]byte{
		"rawLen 1<<31 in 16 bytes":        lzBody(1<<31, 64, 8),
		"rawLen one past the bound":       lzBody(uint32(lz77.MaxDecodedLen(64)+1), 64, 8),
		"bit length past the payload end": lzBody(4, 65, 8),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := IndexRecording(withLZ77Body(t, data, rec.NProcs, body)); !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("IndexRecording = %v, want ErrCorruptLog", err)
			}
		})
	}
	// At the bound the frame indexes and only its decode can fail.
	lazy, err := IndexRecording(withLZ77Body(t, data, rec.NProcs, lzBody(uint32(lz77.MaxDecodedLen(64)), 64, 8)))
	if err != nil {
		t.Fatalf("IndexRecording at the bound: %v", err)
	}
	if err := lazy.Materialize(1); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("materializing a frame that cannot decode to its length = %v, want ErrCorruptLog", err)
	}
}

// TestIndexRecordingConcurrentMaterialize: many goroutines racing to
// materialize and replay one indexed recording (run under -race) agree
// with the eager verdict.
func TestIndexRecordingConcurrentMaterialize(t *testing.T) {
	data, eager, _, replay := indexFixture(t, OrderOnly)
	want, err := replay(eager)
	if err != nil {
		t.Fatalf("eager replay: %v", err)
	}
	lazy, err := IndexRecording(data)
	if err != nil {
		t.Fatalf("IndexRecording: %v", err)
	}
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([]ReplayResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%3 == 0 {
				if err := lazy.Materialize(2); err != nil {
					errs[i] = err
					return
				}
			}
			got[i], errs[i] = replay(lazy)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if keyOf(got[i]) != keyOf(want) {
			t.Fatalf("goroutine %d verdict differs:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

package diffcheck

import (
	"bytes"
	"errors"
	"testing"

	"delorean/internal/core"
	"delorean/internal/sim"
)

// seedRecordingBytes serializes two small real recordings per mode; the
// fuzz targets below use them as corpus seeds so mutation starts from
// well-formed containers rather than random noise.
func seedRecordingBytes(f *testing.F) [][]byte {
	f.Helper()
	cfg := sim.Default8().WithProcs(2).WithChunkSize(60)
	cfg.MaxInsts = 5_000_000
	gen := DefaultGen()
	gen.Iters = 8
	progs := GenPrograms(3, 2, gen)
	var out [][]byte
	for _, mode := range []core.Mode{core.OrderSize, core.OrderOnly, core.PicoLog} {
		// CheckpointEvery populates the checkpoint section, so mutation
		// reaches the delta-checkpoint decoder; StratifyMax adds the
		// stratified frame, so it reaches that decoder too.
		for _, opts := range []core.RecordOptions{
			{TruncSeed: 3, CheckpointEvery: 4},
			{TruncSeed: 3, StratifyMax: 3},
		} {
			rec, err := core.Record(cfg, mode, progs, nil, nil, opts)
			if err != nil {
				f.Fatalf("seed recording (%v): %v", mode, err)
			}
			var buf bytes.Buffer
			if _, err := rec.WriteTo(&buf); err != nil {
				f.Fatalf("serialize seed (%v): %v", mode, err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// corruptFrameSeeds derives hostile variants from well-formed streams:
// truncated tails and single-byte flips that land in v4 frame headers
// and CRC-protected payloads. They seed the corpus so the fuzzer starts
// at the interesting failure surface instead of discovering it.
func corruptFrameSeeds(seeds [][]byte) [][]byte {
	var out [][]byte
	for _, b := range seeds {
		if len(b) < 32 {
			continue
		}
		out = append(out, b[:len(b)/2], b[:len(b)-1])
		for _, off := range []int{len(b) / 4, len(b) / 2, len(b) - 8} {
			mut := append([]byte(nil), b...)
			mut[off] ^= 0x40
			out = append(out, mut)
		}
	}
	return out
}

// FuzzRecordingDeserialize: an arbitrary byte stream fed to the
// recording loader must either load cleanly or fail with an
// ErrCorruptLog-wrapped error — never panic, never return a partial
// Recording. A stream that does load must survive a serialize→reload
// round trip byte-identically (the loader and writer agree on the
// format), and so must a release of its decoded sections followed by a
// fresh materialization from the retained frames.
func FuzzRecordingDeserialize(f *testing.F) {
	seeds := seedRecordingBytes(f)
	for _, b := range seeds {
		f.Add(b)
	}
	for _, b := range corruptFrameSeeds(seeds) {
		f.Add(b)
	}
	f.Add([]byte("DLRN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := core.ReadRecording(bytes.NewReader(data))
		// The parallel frame decoder must agree with the sequential one
		// on accept/reject for every input.
		recPar, perr := core.ReadRecordingParallel(bytes.NewReader(data), 4)
		if (err == nil) != (perr == nil) {
			t.Fatalf("sequential and parallel loaders disagree: %v vs %v", err, perr)
		}
		if err != nil {
			if !errors.Is(err, core.ErrCorruptLog) {
				t.Fatalf("loader error does not wrap ErrCorruptLog: %v", err)
			}
			if !errors.Is(perr, core.ErrCorruptLog) {
				t.Fatalf("parallel loader error does not wrap ErrCorruptLog: %v", perr)
			}
			return
		}
		var first bytes.Buffer
		if _, err := rec.WriteTo(&first); err != nil {
			t.Fatalf("re-serialize of loaded recording: %v", err)
		}
		var firstPar bytes.Buffer
		if _, err := recPar.WriteTo(&firstPar); err != nil {
			t.Fatalf("re-serialize of parallel-loaded recording: %v", err)
		}
		if !bytes.Equal(first.Bytes(), firstPar.Bytes()) {
			t.Fatal("sequential and parallel loads re-serialize differently")
		}
		rec2, err := core.ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of re-serialized recording: %v", err)
		}
		var second bytes.Buffer
		if _, err := rec2.WriteTo(&second); err != nil {
			t.Fatalf("second serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("serialize→reload→serialize is not a fixed point")
		}
		rec.Release()
		if err := rec.Materialize(2); err != nil {
			t.Fatalf("rematerialize after release: %v", err)
		}
		var third bytes.Buffer
		if _, err := rec.WriteTo(&third); err != nil {
			t.Fatalf("serialize after rematerialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), third.Bytes()) {
			t.Fatal("release→rematerialize→serialize differs from the first serialization")
		}
	})
}

// FuzzReplayRecording: any recording the loader accepts must be safe to
// replay against an unrelated program — the engine may (and usually
// will) report a typed divergence or corruption error, but it must not
// panic, hang, or silently return a matching result for a workload the
// recording does not describe.
func FuzzReplayRecording(f *testing.F) {
	for _, b := range seedRecordingBytes(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := core.ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rec.NProcs > 8 || rec.ChunkSize > 4096 {
			return // keep the per-input cost bounded
		}
		gen := DefaultGen()
		gen.Iters = 8
		progs := GenPrograms(1, rec.NProcs, gen)
		cfg := sim.Default8().WithProcs(rec.NProcs).WithChunkSize(rec.ChunkSize)
		cfg.MaxInsts = 200_000
		replay := func(opts core.ReplayOptions) {
			res, rerr := core.Replay(rec, core.ReplayConfig(cfg), progs, opts)
			if rerr == nil {
				// nil error means replay claims full reproduction — the
				// self-verification invariant. A clean non-match would be a
				// silent wrong result, the one outcome the harness forbids.
				if !res.Matches(rec) {
					t.Fatal("replay returned nil error but result does not match recording")
				}
				return
			}
			var div *core.DivergenceError
			if !errors.As(rerr, &div) && !errors.Is(rerr, core.ErrCorruptLog) {
				t.Fatalf("untyped replay error: %v", rerr)
			}
		}
		replay(core.ReplayOptions{})
		if len(rec.Checkpoints) > 0 {
			// Segmented replay must uphold the same invariants when the
			// fuzzer smuggles a checkpoint section past the loader.
			replay(core.ReplayOptions{ReplayParallel: 2})
		}
	})
}

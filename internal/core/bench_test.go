package core

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/rng"
)

// benchRec memoizes the benchmark recording: recording it once keeps
// per-benchmark setup out of the measured loops and lets save and load
// variants price the exact same artifact.
var benchRec struct {
	once sync.Once
	rec  *Recording
	wire []byte
}

func benchRecording(b *testing.B) (*Recording, []byte) {
	b.Helper()
	benchRec.once.Do(func() {
		cfg := testConfig(4, 250)
		progs := make([]*isa.Program, 4)
		p := streamProgram(2000)
		for i := range progs {
			progs[i] = p
		}
		devs := device.New(21)
		devs.GenerateInterrupts(rng.New(8), 4, 4_000, 8_000_000, 0.3)
		devs.GenerateDMA(rng.New(9), 0x900, 4, 8, 6_000, 8_000_000)
		rec, err := Record(cfg, OrderOnly, progs, nil, devs,
			RecordOptions{CheckpointEvery: 50, StratifyMax: 3})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			return
		}
		benchRec.rec = rec
		benchRec.wire = buf.Bytes()
	})
	if benchRec.rec == nil {
		b.Fatal("benchmark recording failed to build")
	}
	return benchRec.rec, benchRec.wire
}

// BenchmarkSaveLoad prices the v4 serialization pipeline: Save (frame
// build + LZ77 + CRC) and Load (frame parse + CRC + LZ77 decode), each
// sequentially and on the parallel worker pool. The bytes are identical
// across variants, so any delta is pure pipeline overhead or speedup.
func BenchmarkSaveLoad(b *testing.B) {
	rec, wire := benchRecording(b)
	b.Run("save/seq", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := rec.WriteToParallel(io.Discard, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("save/parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := rec.WriteToParallel(io.Discard, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load/seq", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadRecordingParallel(bytes.NewReader(wire), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load/parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadRecordingParallel(bytes.NewReader(wire), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

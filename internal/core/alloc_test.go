package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"delorean/internal/isa"
)

// checkpointFrameAllocs is the allocations Materialize makes per
// checkpoint frame of a recording on nprocs processors: the difference
// between decoding the recording with and without its checkpoints,
// which share every other frame byte for byte.
func checkpointFrameAllocs(t *testing.T, nprocs int) float64 {
	t.Helper()
	cfg := testConfig(nprocs, 200)
	rec := record(t, cfg, OrderOnly, racyProgs(nprocs, 200), nil, RecordOptions{CheckpointEvery: 8})
	k := len(rec.Checkpoints)
	if k < 4 {
		t.Fatalf("setup: %d checkpoints", k)
	}
	encode := func() []byte {
		var buf bytes.Buffer
		if _, err := rec.WriteToParallel(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	with := encode()
	rec.Checkpoints = nil
	without := encode()
	allocs := func(data []byte) float64 {
		r, err := IndexRecording(data)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			r.Release()
			if err := r.Materialize(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (allocs(with) - allocs(without)) / float64(k)
}

// Decoding a checkpoint frame costs a fixed number of allocations —
// its memory delta, chain digests and processor states each come out
// of one — however many processors the checkpoint holds. A decoder
// that allocates per field, or grows the processor list one state at a
// time, scales with the processor count.
func TestMaterializeCheckpointAllocsPerFrame(t *testing.T) {
	small, large := checkpointFrameAllocs(t, 2), checkpointFrameAllocs(t, 8)
	t.Logf("allocations per checkpoint frame: %.2f at 2 processors, %.2f at 8", small, large)
	if large-small >= 2 {
		t.Fatalf("a checkpoint frame costs %.2f allocations at 8 processors and %.2f at 2", large, small)
	}
}

// privateLoop is a program that touches one private word per
// processor, so its memory footprint does not grow with iters.
func privateLoop(iters int) *isa.Program {
	a := isa.NewAsm()
	a.Muli(9, 15, 0x1000)
	a.Addi(9, 9, 0x100000)
	a.Ldi(4, 0)
	a.Ldi(5, int64(iters))
	a.Label("loop")
	a.Ld(6, 9, 0)
	a.Addi(6, 6, 1)
	a.St(9, 0, 6)
	a.Addi(4, 4, 1)
	a.Blt(4, 5, "loop")
	a.Halt()
	return a.Assemble()
}

// replayGrowthBudget bounds how much more a warm replay of the longer
// run may allocate than one of the shorter: replay state that the log
// bounds (the commit checks, the truncation and interrupt lookups) must
// not grow per commit. The longer run commits about 4 000 more chunks.
const replayGrowthBudget = 32 << 10

// A warm sequential Replay allocates about the same at two lengths of
// one workload: nothing it keeps grows with the commits it replays.
func TestWarmReplayAllocsFlatInLength(t *testing.T) {
	cfg := testConfig(4, 100)
	replayBytes := func(iters int) (uint64, uint64) {
		progs := replicateProgs(privateLoop(iters), 4)
		rec := record(t, cfg, OrderSize, progs, nil, RecordOptions{})
		var before, after runtime.MemStats
		var n uint64
		for i := 0; i < 2; i++ { // the second replay is warm
			runtime.ReadMemStats(&before)
			replayMatches(t, rec, cfg, progs, ReplayOptions{})
			runtime.ReadMemStats(&after)
			n = after.TotalAlloc - before.TotalAlloc
		}
		return n, rec.Stats.Chunks
	}
	short, shortChunks := replayBytes(2_000)
	long, longChunks := replayBytes(20_000)
	t.Logf("warm replay: %d bytes for %d chunks, %d bytes for %d chunks", short, shortChunks, long, longChunks)
	if long > short+replayGrowthBudget {
		t.Fatalf("replay of %d chunks allocated %d bytes more than of %d (budget %d)",
			longChunks, long-short, shortChunks, replayGrowthBudget)
	}
}

// saveAllocSlack bounds the allocations a save makes beyond one per
// frame: the frame list, the encoded frames and the header take four.
const saveAllocSlack = 8

// A save of F frames makes at most F+saveAllocSlack allocations: each
// frame's buffer, plus a few for the whole save. Logs pack straight
// into the frame scratch, so packed bits cost nothing per frame; a
// closure, interface, goroutine or packed-log buffer per frame, or a
// writer buffer, goes over.
func TestWriteToParallelAllocsPerFrame(t *testing.T) {
	cfg := testConfig(4, 200)
	rec := record(t, cfg, OrderOnly, racyProgs(4, 200), nil, RecordOptions{CheckpointEvery: 8})
	frames := len(rec.frameIDs())
	save := testing.AllocsPerRun(5, func() {
		if _, err := rec.WriteToParallel(io.Discard, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d frames: %.1f allocations to save", frames, save)
	if save > float64(frames+saveAllocSlack) {
		t.Fatalf("a save of %d frames made %.1f allocations, want at most %d", frames, save, frames+saveAllocSlack)
	}
}

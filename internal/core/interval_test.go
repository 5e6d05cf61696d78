package core

import (
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/mem"
	"delorean/internal/rng"
	"delorean/internal/workload"
)

func newMem() *mem.Memory { return mem.New() }

// TestIntervalReplayRacy: record a racy run with periodic checkpoints and
// replay every interval under perturbed timing — the paper's Appendix B
// theorem (deterministic replay of I(n, m) from a checkpoint at GCC=n)
// as an executable assertion.
func TestIntervalReplayRacy(t *testing.T) {
	for _, mode := range []Mode{OrderOnly, PicoLog, OrderSize} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(4, 300)
			progs := racyProgs(4, 120)
			rec, err := Record(cfg, mode, progs, nil, nil, RecordOptions{
				CheckpointEvery: 15,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Checkpoints) < 2 {
				t.Fatalf("only %d checkpoints taken (chunks=%d)", len(rec.Checkpoints), rec.Stats.Chunks)
			}
			for idx := range rec.Checkpoints {
				res, err := ReplayFromCheckpoint(rec, idx, ReplayConfig(cfg), progs, ReplayOptions{
					Perturb: bulksc.DefaultPerturb(uint64(idx*13 + 7)),
				})
				if err != nil {
					t.Fatalf("interval %d: %v", idx, err)
				}
				if !res.MatchesInterval(rec, idx) {
					t.Fatalf("interval %d (slot %d) diverged: fp %x vs %x, mem %x vs %x",
						idx, rec.Checkpoints[idx].Slot,
						res.Fingerprint, rec.Checkpoints[idx].Fingerprint,
						res.MemHash, rec.FinalMemHash)
				}
			}
		})
	}
}

// TestIntervalReplayWithSystemEvents covers interval replay across
// interrupt, I/O and DMA activity: the input-log offsets at the cut must
// line up exactly.
func TestIntervalReplayWithSystemEvents(t *testing.T) {
	for _, mode := range []Mode{OrderOnly, PicoLog} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(4, 250)
			progs := replicateProgs(systemProgram(150), 4)
			devs := device.New(42)
			devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
			devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)

			rec, err := Record(cfg, mode, progs, nil, devs, RecordOptions{
				CheckpointEvery: 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Stats.Interrupts == 0 || rec.Stats.IOOps == 0 || rec.Stats.DMAs == 0 {
				t.Fatal("setup: system events missing")
			}
			if len(rec.Checkpoints) == 0 {
				t.Fatal("no checkpoints")
			}
			for idx := range rec.Checkpoints {
				res, err := ReplayFromCheckpoint(rec, idx, ReplayConfig(cfg), progs, ReplayOptions{
					Perturb: bulksc.DefaultPerturb(uint64(idx + 3)),
				})
				if err != nil {
					t.Fatalf("interval %d: %v", idx, err)
				}
				if !res.MatchesInterval(rec, idx) {
					t.Fatalf("interval %d (slot %d) diverged", idx, rec.Checkpoints[idx].Slot)
				}
			}
		})
	}
}

// TestPicoLogUrgentCommitTokens replays every interval of a PicoLog
// recording whose urgent interrupt handlers commit out of turn (a
// non-empty slot log), checkpointed densely so that cuts fall between an
// urgent commit and the next in-turn one. An urgent commit does not pass
// the round-robin token, so each checkpoint's TokenAt must still name the
// processor whose turn is next; a wrong holder reorders the interval's
// commits.
func TestPicoLogUrgentCommitTokens(t *testing.T) {
	cfg := testConfig(4, 250)
	progs := replicateProgs(systemProgram(60), 4)
	devs := device.New(42)
	devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
	rec, err := Record(cfg, PicoLog, progs, nil, devs, RecordOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Slots.Len() == 0 || len(rec.Checkpoints) == 0 {
		t.Fatalf("setup: %d urgent commit slots, %d checkpoints", rec.Slots.Len(), len(rec.Checkpoints))
	}
	for idx := range rec.Checkpoints {
		res, err := ReplayFromCheckpoint(rec, idx, ReplayConfig(cfg), progs, ReplayOptions{})
		if err != nil {
			t.Fatalf("interval %d (slot %d, token %d): %v", idx, rec.Checkpoints[idx].Slot, rec.Checkpoints[idx].TokenAt, err)
		}
		if !res.MatchesInterval(rec, idx) {
			t.Fatalf("interval %d (slot %d, token %d) diverged", idx, rec.Checkpoints[idx].Slot, rec.Checkpoints[idx].TokenAt)
		}
	}
}

// TestIntervalReplayWorkloads runs interval replay over real workloads.
func TestIntervalReplayWorkloads(t *testing.T) {
	for _, name := range []string{"raytrace", "lu", "sjbb2k"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workload.Get(name, workload.Params{NProcs: 4, Scale: 10000, Seed: 5})
			cfg := testConfig(4, 400)
			rec, err := Record(cfg, OrderOnly, w.Progs, w.Image, w.Devs, RecordOptions{
				CheckpointEvery: 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Checkpoints) == 0 {
				t.Skip("run too short for a checkpoint")
			}
			// Replay the middle interval.
			idx := len(rec.Checkpoints) / 2
			res, err := ReplayFromCheckpoint(rec, idx, ReplayConfig(cfg), w.Progs, ReplayOptions{
				Perturb: bulksc.DefaultPerturb(99),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.MatchesInterval(rec, idx) {
				t.Fatal("interval replay diverged")
			}
			// The interval is shorter than the whole run.
			if res.Stats.Chunks >= rec.Stats.Chunks {
				t.Fatalf("interval committed %d chunks, full run %d", res.Stats.Chunks, rec.Stats.Chunks)
			}
		})
	}
}

func TestIntervalReplayBounds(t *testing.T) {
	cfg := testConfig(2, 300)
	progs := racyProgs(2, 40)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 10})
	if _, err := ReplayFromCheckpoint(rec, len(rec.Checkpoints), ReplayConfig(cfg), progs, ReplayOptions{}); err == nil {
		t.Fatal("out-of-range checkpoint accepted")
	}
	if _, err := ReplayFromCheckpoint(rec, 0, ReplayConfig(cfg), progs, ReplayOptions{UseStratified: true}); err == nil {
		t.Fatal("stratified interval replay accepted")
	}
}

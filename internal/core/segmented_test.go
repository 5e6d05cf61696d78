package core

import (
	"errors"
	"reflect"
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/rng"
)

// TestSegmentedReplayMatchesSequential: the tentpole's correctness
// property. For every mode, a segmented replay must (a) succeed exactly
// when the sequential replay succeeds, (b) report the same Fingerprint
// and MemHash, and (c) produce a byte-identical ReplayResult at every
// worker count — the fan-out is a scheduling choice, never an outcome.
func TestSegmentedReplayMatchesSequential(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			nprocs := 4
			cfg := testConfig(nprocs, 250)
			progs := replicateProgs(systemProgram(150), nprocs)
			devs := device.New(42)
			devs.GenerateInterrupts(rng.New(1), nprocs, 4_000, 2_000_000, 0.3)
			devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)
			rec := record(t, cfg, mode, progs, devs, RecordOptions{CheckpointEvery: 25})
			if len(rec.Checkpoints) < 2 {
				t.Fatalf("setup: only %d checkpoints", len(rec.Checkpoints))
			}

			seq := replayMatches(t, rec, cfg, progs, ReplayOptions{})

			var results []ReplayResult
			for _, workers := range []int{1, 2, 8} {
				res, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{
					ReplayParallel: workers,
					Perturb:        bulksc.DefaultPerturb(7),
				})
				if err != nil {
					t.Fatalf("segmented replay (%d workers): %v", workers, err)
				}
				if res.Fingerprint != seq.Fingerprint || res.MemHash != seq.MemHash {
					t.Fatalf("segmented replay (%d workers): fp %x vs %x, mem %x vs %x",
						workers, res.Fingerprint, seq.Fingerprint, res.MemHash, seq.MemHash)
				}
				results = append(results, res)
			}
			for i := 1; i < len(results); i++ {
				if !reflect.DeepEqual(results[0], results[i]) {
					t.Fatalf("segmented ReplayResult differs between 1 and %d workers:\n%+v\nvs\n%+v",
						[]int{1, 2, 8}[i], results[0], results[i])
				}
			}
			// Commit accounting is slot-gated, so the per-interval sums
			// reproduce the sequential totals exactly.
			if got := results[0].Stats.Chunks; got != seq.Stats.Chunks {
				t.Fatalf("segmented committed %d chunks, sequential %d", got, seq.Stats.Chunks)
			}
			if got := results[0].Stats.DMAs; got != seq.Stats.DMAs {
				t.Fatalf("segmented committed %d DMAs, sequential %d", got, seq.Stats.DMAs)
			}
		})
	}
}

// TestSegmentedReplayNoCheckpoints: ReplayParallel on an un-checkpointed
// recording falls back to the plain sequential path, byte-identically.
func TestSegmentedReplayNoCheckpoints(t *testing.T) {
	cfg := testConfig(2, 300)
	progs := racyProgs(2, 60)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{})
	seq := replayMatches(t, rec, cfg, progs, ReplayOptions{})
	res, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, res) {
		t.Fatalf("fallback result differs from sequential:\n%+v\nvs\n%+v", seq, res)
	}
}

// TestSegmentedReplayStratifiedRejected: stratum boundaries do not align
// with checkpoint cuts, so the combination is an explicit error.
func TestSegmentedReplayStratifiedRejected(t *testing.T) {
	cfg := testConfig(2, 300)
	progs := racyProgs(2, 40)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 10, StratifyMax: 3})
	if _, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: 2, UseStratified: true}); err == nil {
		t.Fatal("segmented stratified replay accepted")
	}
}

// TestSegmentedReplayDivergenceInterval injects a divergence into the
// middle of a recording (one corrupted I/O value) and checks that (a)
// sequential and segmented replay agree on the verdict class and (b) the
// segmented replay attributes it to the correct interval — at every
// worker count, deterministically.
func TestSegmentedReplayDivergenceInterval(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			nprocs := 4
			cfg := testConfig(nprocs, 250)
			progs := replicateProgs(systemProgram(150), nprocs)
			devs := device.New(42)
			devs.GenerateInterrupts(rng.New(1), nprocs, 4_000, 2_000_000, 0.3)
			devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)
			rec := record(t, cfg, mode, progs, devs, RecordOptions{CheckpointEvery: 25})
			k := len(rec.Checkpoints)
			if k < 2 {
				t.Fatalf("setup: only %d checkpoints", k)
			}

			// Find an I/O value consumed strictly inside a middle interval
			// and flip it: the earliest diverging interval is then known.
			wantInterval, ioProc, ioIdx := -1, -1, -1
			for i := 1; i < k && wantInterval < 0; i++ {
				for p := 0; p < nprocs; p++ {
					lo := rec.Checkpoints[i-1].Procs[p].IOConsumed
					hi := rec.Checkpoints[i].Procs[p].IOConsumed
					if hi > lo {
						wantInterval, ioProc, ioIdx = i, p, lo
						break
					}
				}
			}
			if wantInterval < 0 {
				t.Skip("no interior interval consumed I/O")
			}
			rec.IO[ioProc].Values()[ioIdx] ^= 0xdeadbeef

			_, seqErr := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{})
			var seqDiv *DivergenceError
			if !errors.As(seqErr, &seqDiv) {
				t.Fatalf("sequential replay of corrupted recording: %v", seqErr)
			}
			if seqDiv.Interval != -1 {
				t.Fatalf("sequential divergence carries interval %d", seqDiv.Interval)
			}

			// Replaying from the cut just before the corrupted interval
			// runs the same log suffix to the same end, so it must report
			// the sequential divergence exactly.
			_, cpErr := ReplayFromCheckpoint(rec, wantInterval-1, ReplayConfig(cfg), progs, ReplayOptions{})
			var cpDiv *DivergenceError
			if !errors.As(cpErr, &cpDiv) {
				t.Fatalf("interval replay from checkpoint %d of corrupted recording: %v", wantInterval-1, cpErr)
			}
			if !reflect.DeepEqual(cpDiv, seqDiv) {
				t.Fatalf("interval replay divergence differs from sequential:\n%+v\nvs\n%+v", cpDiv, seqDiv)
			}

			var errs []*DivergenceError
			for _, workers := range []int{1, 2, 8} {
				_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: workers})
				var div *DivergenceError
				if !errors.As(err, &div) {
					t.Fatalf("segmented replay (%d workers) of corrupted recording: %v", workers, err)
				}
				if div.Interval != wantInterval {
					t.Fatalf("segmented replay (%d workers) blamed interval %d, corruption is in %d",
						workers, div.Interval, wantInterval)
				}
				if div.Kind != seqDiv.Kind || div.Proc != seqDiv.Proc {
					t.Fatalf("segmented replay (%d workers) reports %s divergence on proc %d, sequential %s on proc %d",
						workers, div.Kind, div.Proc, seqDiv.Kind, seqDiv.Proc)
				}
				errs = append(errs, div)
			}
			for i := 1; i < len(errs); i++ {
				if !reflect.DeepEqual(errs[0], errs[i]) {
					t.Fatalf("divergence differs across worker counts:\n%+v\nvs\n%+v", errs[0], errs[i])
				}
			}
		})
	}
}

// TestCheckpointCutPastPILog: a checkpoint cut beyond the end of the PI
// log is structural corruption. Sequential, segmented and interval
// replay all reach it through Validate and must reject it with
// ErrCorruptLog before any engine runs.
func TestCheckpointCutPastPILog(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(4, 250)
			progs := replicateProgs(systemProgram(150), 4)
			rec := record(t, cfg, mode, progs, nil, RecordOptions{CheckpointEvery: 25})
			last := len(rec.Checkpoints) - 1
			if last < 0 {
				t.Fatal("setup: no checkpoints")
			}
			rec.Checkpoints[last].Slot = uint64(len(rec.PI.Entries())) + 5

			for _, c := range []struct {
				name string
				run  func() error
			}{
				{"sequential", func() error {
					_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{})
					return err
				}},
				{"segmented", func() error {
					_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: 2})
					return err
				}},
				{"from-checkpoint", func() error {
					_, err := ReplayFromCheckpoint(rec, last, ReplayConfig(cfg), progs, ReplayOptions{})
					return err
				}},
			} {
				if err := c.run(); !errors.Is(err, ErrCorruptLog) {
					t.Fatalf("%s replay = %v, want ErrCorruptLog", c.name, err)
				}
			}
		})
	}
}

// TestSegmentedReplayCheckpointValueCorruption: a bit flipped inside a
// checkpoint's memory delta. A sequential replay never reads checkpoint
// images, so it may well still succeed — the documented oracle
// exception — but a segmented replay starts interval workers from the
// corrupted image and must detect the damage rather than report a clean
// match.
func TestSegmentedReplayCheckpointValueCorruption(t *testing.T) {
	cfg := testConfig(4, 250)
	progs := replicateProgs(systemProgram(150), 4)
	devs := device.New(42)
	devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
	devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)
	rec := record(t, cfg, OrderOnly, progs, devs, RecordOptions{CheckpointEvery: 40})
	if len(rec.Checkpoints) < 2 {
		t.Fatalf("setup: only %d checkpoints", len(rec.Checkpoints))
	}
	target := len(rec.Checkpoints) / 2
	delta := rec.Checkpoints[target].MemDelta
	if len(delta) == 0 {
		t.Skip("middle checkpoint has an empty delta")
	}
	delta[0].Val ^= 1 << 17
	if _, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: 4}); err == nil {
		t.Fatal("segmented replay reported a clean match from a corrupted checkpoint image")
	}
}

// TestIntervalMatchDiagnosis covers the MatchInterval split: the typed
// range error and the per-side diagnosis.
func TestIntervalMatchDiagnosis(t *testing.T) {
	cfg := testConfig(4, 300)
	progs := racyProgs(4, 120)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 15})
	if len(rec.Checkpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	res, err := ReplayFromCheckpoint(rec, 0, ReplayConfig(cfg), progs, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.MatchInterval(rec, 0)
	if err != nil || !m.OK() {
		t.Fatalf("clean interval replay: match %+v, err %v", m, err)
	}
	if _, err := res.MatchInterval(rec, len(rec.Checkpoints)); !errors.Is(err, ErrCheckpointRange) {
		t.Fatalf("out-of-range index: %v", err)
	}
	if _, err := ReplayFromCheckpoint(rec, -1, ReplayConfig(cfg), progs, ReplayOptions{}); !errors.Is(err, ErrCheckpointRange) {
		t.Fatalf("ReplayFromCheckpoint out-of-range index: %v", err)
	}
	bad := res
	bad.Fingerprint++
	if m, _ := bad.MatchInterval(rec, 0); m.FingerprintOK || !m.MemHashOK {
		t.Fatalf("fingerprint-side mismatch misdiagnosed: %+v", m)
	}
	bad = res
	bad.MemHash++
	if m, _ := bad.MatchInterval(rec, 0); !m.FingerprintOK || m.MemHashOK {
		t.Fatalf("memory-side mismatch misdiagnosed: %+v", m)
	}
}

// Randomized record/replay validation. The program generator lives in
// internal/diffcheck (it is shared with cmd/delorean-fuzz and the
// fault-injection harness), which is why this file is an external test
// package: core_test -> diffcheck -> core.
package core_test

import (
	"fmt"
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/diffcheck"
	"delorean/internal/sim"
)

func fuzzConfig(nprocs, chunkSize int) sim.Config {
	c := sim.Default8()
	c.NProcs = nprocs
	c.ChunkSize = chunkSize
	c.MaxInsts = 30_000_000
	return c
}

// TestFuzzRecordReplay runs randomized racy programs through record +
// perturbed replay in every mode. Any engine asymmetry between recording
// and replay shows up as a fingerprint or memory divergence here.
func TestFuzzRecordReplay(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		mode := []core.Mode{core.OrderSize, core.OrderOnly, core.PicoLog}[seed%3]
		t.Run(fmt.Sprintf("seed%d_%v", seed, mode), func(t *testing.T) {
			progs := diffcheck.GenPrograms(uint64(seed), 4, diffcheck.DefaultGen())
			cfg := fuzzConfig(4, 150+50*(seed%4))
			rec, err := core.Record(cfg, mode, progs, nil, nil, core.RecordOptions{TruncSeed: uint64(seed)})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if rec.Stats.Squashes == 0 {
				t.Log("note: no squashes this seed")
			}
			res, err := core.Replay(rec, core.ReplayConfig(cfg), progs, core.ReplayOptions{
				Perturb: bulksc.DefaultPerturb(uint64(seed)*7 + 3),
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !res.Matches(rec) {
				t.Fatalf("fuzz divergence: fp %x vs %x, mem %x vs %x (squashes rec=%d rep=%d)",
					res.Fingerprint, rec.Fingerprint, res.MemHash, rec.FinalMemHash,
					rec.Stats.Squashes, res.Stats.Squashes)
			}
		})
	}
}

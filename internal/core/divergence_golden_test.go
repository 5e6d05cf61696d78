package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delorean/internal/device"
	"delorean/internal/dlog"
	"delorean/internal/isa"
	"delorean/internal/rng"
	"delorean/internal/sim"
)

// TestDivergenceLocalizationGolden pins the full DivergenceError —
// kind, slot, core, chunk, interval and detail — of deterministic
// injected faults: a reordered PI log, a truncated one, a wrong
// Order&Size size, a wrong OrderOnly CS entry, a replay that splits
// chunks, and bounded segmented intervals that fail. Replay is
// unperturbed here, so each verdict is a pure function of the damaged
// recording. Regenerate testdata/divergence.golden with
// `go test ./internal/core -run TestDivergenceLocalizationGolden -update`
// only when a localization change is intended.
func TestDivergenceLocalizationGolden(t *testing.T) {
	var lines []string
	for _, tc := range divergenceCases() {
		d, err := tc.run(t)
		var div *DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("%s: replay = %v, want *DivergenceError", tc.name, err)
		}
		if d != "" {
			d = " " + d
		}
		lines = append(lines, fmt.Sprintf("%s kind=%s mode=%s slot=%d proc=%d seq=%d interval=%d%s detail=%q",
			tc.name, div.Kind, div.Mode, div.Slot, div.Proc, div.SeqID, div.Interval, d, div.Detail))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "divergence.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("divergence localization changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// divergenceCase damages a fresh recording and replays it; run returns
// the replay error and an optional note the golden line carries.
type divergenceCase struct {
	name string
	run  func(t *testing.T) (string, error)
}

func divergenceCases() []divergenceCase {
	racy := func(t *testing.T, mode Mode, opts RecordOptions) (*Recording, sim.Config, []*isa.Program) {
		cfg := testConfig(4, 200)
		progs := racyProgs(4, 80)
		return record(t, cfg, mode, progs, nil, opts), cfg, progs
	}
	system := func(t *testing.T, mode Mode) (*Recording, sim.Config, []*isa.Program) {
		cfg := testConfig(4, 250)
		progs := replicateProgs(systemProgram(150), 4)
		devs := device.New(42)
		devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
		devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)
		return record(t, cfg, mode, progs, devs, RecordOptions{CheckpointEvery: 25}), cfg, progs
	}
	sequential := func(rec *Recording, cfg sim.Config, progs []*isa.Program) (string, error) {
		_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{})
		return "", err
	}
	segmented := func(rec *Recording, cfg sim.Config, progs []*isa.Program) (string, error) {
		_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: 2})
		return fmt.Sprintf("checkpoints=%d", len(rec.Checkpoints)), err
	}
	return []divergenceCase{
		{"pi-swap", func(t *testing.T) (string, error) {
			rec, cfg, progs := racy(t, OrderOnly, RecordOptions{})
			swapPI(t, rec, len(rec.PI.Entries())/2)
			return sequential(rec, cfg, progs)
		}},
		{"pi-truncated", func(t *testing.T) (string, error) {
			rec, cfg, progs := racy(t, OrderOnly, RecordOptions{})
			setPI(rec, rec.PI.Entries()[:len(rec.PI.Entries())/2])
			return sequential(rec, cfg, progs)
		}},
		{"size-changed", func(t *testing.T) (string, error) {
			rec, cfg, progs := racy(t, OrderSize, RecordOptions{TruncSeed: 3})
			bumpSize(rec, 1, rec.Sizes[1].Len()/2)
			return sequential(rec, cfg, progs)
		}},
		{"cs-changed", func(t *testing.T) (string, error) {
			rec, cfg, progs := racy(t, OrderOnly, RecordOptions{})
			for p := range rec.CS {
				entries := rec.CS[p].Entries()
				if len(entries) == 0 {
					continue
				}
				cs := dlog.NewCSLog(rec.ChunkSize)
				for j, e := range entries {
					size := e.Size
					if j == len(entries)/2 {
						size = 1 + size%rec.ChunkSize
					}
					cs.Append(e.SeqID, size)
				}
				rec.CS[p] = cs
				return fmt.Sprintf("cs-proc=%d", p), sequentialErr(rec, cfg, progs)
			}
			t.Fatal("setup: no CS entries recorded")
			return "", nil
		}},
		{"split", func(t *testing.T) (string, error) {
			cfg, progs := splitSetup()
			rec := record(t, cfg, OrderSize, progs, nil, RecordOptions{})
			bumpSize(rec, 1, rec.Sizes[1].Len()/2)
			rcfg := ReplayConfig(cfg)
			rcfg.SimulChunks = 3
			res, err := Replay(rec, rcfg, progs, ReplayOptions{})
			var pieces uint64
			for _, n := range res.Stats.TruncBy {
				pieces += n
			}
			if pieces <= res.Stats.Chunks {
				t.Fatalf("setup: replay split no chunk (%d pieces, %d chunks)", pieces, res.Stats.Chunks)
			}
			return "", err
		}},
		{"split-pi-truncated", func(t *testing.T) (string, error) {
			cfg, progs := splitSetup()
			rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{})
			setPI(rec, rec.PI.Entries()[:2*len(rec.PI.Entries())/3])
			rcfg := ReplayConfig(cfg)
			rcfg.SimulChunks = 3
			_, err := Replay(rec, rcfg, progs, ReplayOptions{})
			return "", err
		}},
		{"segmented-io", func(t *testing.T) (string, error) {
			rec, cfg, progs := system(t, OrderSize)
			flipMiddleIO(t, rec)
			return segmented(rec, cfg, progs)
		}},
		{"segmented-size", func(t *testing.T) (string, error) {
			rec, cfg, progs := system(t, OrderSize)
			cut := rec.Checkpoints[len(rec.Checkpoints)/2]
			p := 1
			bumpSize(rec, p, int(cut.Procs[p].NextSeq)+1)
			return segmented(rec, cfg, progs)
		}},
		{"segmented-pi-changed", func(t *testing.T) (string, error) {
			rec, cfg, progs := system(t, OrderOnly)
			cut := rec.Checkpoints[len(rec.Checkpoints)/2]
			changePI(rec, int(cut.Slot)+3)
			return segmented(rec, cfg, progs)
		}},
		{"checkpoint-pi-changed", func(t *testing.T) (string, error) {
			rec, cfg, progs := system(t, OrderOnly)
			i := len(rec.Checkpoints) / 2
			changePI(rec, int(rec.Checkpoints[i].Slot)+3)
			_, err := ReplayFromCheckpoint(rec, i, ReplayConfig(cfg), progs, ReplayOptions{})
			return fmt.Sprintf("from=%d", i), err
		}},
		{"picolog-io", func(t *testing.T) (string, error) {
			rec, cfg, progs := system(t, PicoLog)
			flipMiddleIO(t, rec)
			return sequential(rec, cfg, progs)
		}},
	}
}

func sequentialErr(rec *Recording, cfg sim.Config, progs []*isa.Program) error {
	_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{})
	return err
}

// splitSetup is TestReplaySplitsOnUnexpectedOverflow's machine and
// programs: recorded with one chunk in flight, a replay with three
// overflows its L1 set where the recording did not, and splits chunks.
func splitSetup() (sim.Config, []*isa.Program) {
	cfg := testConfig(2, 600)
	cfg.SimulChunks = 1
	numSets := uint32(cfg.L1Bytes / (isa.LineBytes * cfg.L1Ways))
	stride := numSets * isa.LineWords
	mkProg := func(base uint32) *isa.Program {
		a := isa.NewAsm()
		a.Ldi(1, int64(base))
		a.Ldi(2, 1)
		a.Ldi(3, 0)
		a.Ldi(4, 60)
		a.Label("loop")
		a.St(1, 0, 2)
		a.Work(195, 5)
		a.Addi(1, 1, int64(stride))
		a.Addi(3, 3, 1)
		a.Blt(3, 4, "loop")
		a.Halt()
		return a.Assemble()
	}
	return cfg, []*isa.Program{mkProg(0x100000), mkProg(0x300000)}
}

func setPI(rec *Recording, entries []int) {
	pi := dlog.NewPILog(rec.NProcs)
	for _, p := range entries {
		pi.Append(p)
	}
	rec.PI = pi
}

// swapPI swaps the first pair of adjacent PI entries at or after i that
// name different processors.
func swapPI(t *testing.T, rec *Recording, i int) {
	t.Helper()
	e := append([]int(nil), rec.PI.Entries()...)
	for ; i+1 < len(e); i++ {
		if e[i] != e[i+1] {
			e[i], e[i+1] = e[i+1], e[i]
			setPI(rec, e)
			return
		}
	}
	t.Fatal("setup: no adjacent PI entries to swap")
}

// changePI names the next processor at PI entry i instead of the
// recorded one (DMA entries stay).
func changePI(rec *Recording, i int) {
	e := append([]int(nil), rec.PI.Entries()...)
	if e[i] < rec.NProcs {
		e[i] = (e[i] + 1) % rec.NProcs
	}
	setPI(rec, e)
}

// bumpSize changes processor p's Order&Size entry i to another in-range
// size.
func bumpSize(rec *Recording, p, i int) {
	sizes := rec.Sizes[p].Sizes()
	sizes[i] = 1 + sizes[i]%rec.ChunkSize
}

// flipMiddleIO corrupts the first I/O value consumed inside an interior
// checkpoint interval.
func flipMiddleIO(t *testing.T, rec *Recording) {
	t.Helper()
	for i := 1; i < len(rec.Checkpoints); i++ {
		for p := 0; p < rec.NProcs; p++ {
			lo := rec.Checkpoints[i-1].Procs[p].IOConsumed
			if rec.Checkpoints[i].Procs[p].IOConsumed > lo {
				rec.IO[p].Values()[lo] ^= 0xdeadbeef
				return
			}
		}
	}
	t.Fatal("setup: no interior interval consumed I/O")
}

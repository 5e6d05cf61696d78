package diffcheck

import (
	"reflect"
	"strings"
	"testing"

	"delorean/internal/baseline"
	"delorean/internal/core"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

func TestGenProgramDeterministic(t *testing.T) {
	for _, cfg := range []GenConfig{DefaultGen(), SystemGen(), RaceFreeGen()} {
		a := GenProgram(42, cfg)
		b := GenProgram(42, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed generated different programs")
		}
		c := GenProgram(43, cfg)
		if reflect.DeepEqual(a, c) {
			t.Fatal("different seeds generated identical programs")
		}
	}
}

func TestGenProgramTerminates(t *testing.T) {
	cfg := sim.Default8().WithProcs(2).WithChunkSize(200)
	cfg.MaxInsts = 30_000_000
	for seed := uint64(0); seed < 4; seed++ {
		progs := GenPrograms(seed, 2, DefaultGen())
		rec, err := core.Record(cfg, core.OrderOnly, progs, nil, nil, core.RecordOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rec.Stats.Insts == 0 {
			t.Fatalf("seed %d: empty execution", seed)
		}
	}
}

func TestCheckMatrixSeeds(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		rep := Check(uint64(seed), DefaultOptions())
		if !rep.OK() {
			t.Errorf("seed %d:\n  %s", seed, strings.Join(rep.Failures, "\n  "))
		}
		if rep.Checks < 50 {
			t.Errorf("seed %d: only %d oracle checks ran", seed, rep.Checks)
		}
	}
}

// TestBaselineRecordersDifferential cross-validates the prior-work
// recorders (FDR, RTR, Strata) against DeLorean on generated race-free
// programs: the deterministic SC machine they record on must re-execute
// to bit-identical logs, and its final memory state must equal every
// DeLorean mode's — same program, same architectural outcome, whichever
// scheme records it.
func TestBaselineRecordersDifferential(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	gen := RaceFreeGen()
	gen.Iters = 30
	cfg := sim.Default8().WithProcs(4).WithChunkSize(200)
	cfg.MaxInsts = 30_000_000

	for seed := 1; seed <= seeds; seed++ {
		progs := GenPrograms(uint64(seed), 4, gen)

		type capture struct {
			hash uint64
			bits [3]int
		}
		runOnce := func() capture {
			fdr := baseline.NewFDR(4)
			rtr := baseline.NewRTR(4)
			strata := baseline.NewStrata(4, false)
			memory := mem.New()
			st := baseline.Run(cfg, progs, memory, nil, fdr, rtr, strata)
			if !st.Converged {
				t.Fatalf("seed %d: SC run did not converge", seed)
			}
			return capture{memory.Hash(), [3]int{fdr.RawBits(), rtr.RawBits(), strata.RawBits()}}
		}
		first, second := runOnce(), runOnce()
		if first != second {
			t.Fatalf("seed %d: SC machine is not deterministic: %+v vs %+v", seed, first, second)
		}

		for _, mode := range []core.Mode{core.OrderSize, core.OrderOnly, core.PicoLog} {
			rec, err := core.Record(cfg, mode, progs, nil, nil, core.RecordOptions{})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			if rec.FinalMemHash != first.hash {
				t.Fatalf("seed %d: %v final memory %x != SC machine %x on race-free program",
					seed, mode, rec.FinalMemHash, first.hash)
			}
		}
	}
}

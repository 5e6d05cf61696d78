package core

import (
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/isa"
	"delorean/internal/mem"
)

// splitCounter is a replay observer that builds the fingerprint and
// counts split commits.
type splitCounter struct {
	bulksc.NopObserver
	fp     *fingerprint
	splits int
}

func (s *splitCounter) OnCommit(ev bulksc.CommitEvent) {
	if ev.Split {
		s.splits++
	}
	s.fp.commit(ev)
}

// TestReplaySplitsOnUnexpectedOverflow forces the paper's §4.2.3 replay
// corner: a chunk that did NOT overflow during recording overflows
// during replay (because replay keeps more speculative state in flight)
// and must commit as two pieces sharing one PI log entry.
//
// Setup: a program whose chunks write several lines mapping to one L1
// set. Recording runs with SimulChunks=1, so at most one chunk's
// speculative lines occupy the set and (almost) nothing overflows.
// Replay runs with SimulChunks=3 and serial commits, so consecutive
// chunks' lines pile into the set and overflow strikes at points the CS
// log never saw.
func TestReplaySplitsOnUnexpectedOverflow(t *testing.T) {
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
		a.St(1, 0, 2) // same-set line each iteration
		a.Work(195, 5)
		a.Addi(1, 1, int64(stride))
		a.Addi(3, 3, 1)
		a.Blt(3, 4, "loop")
		a.Halt()
		return a.Assemble()
	}
	progs := []*isa.Program{mkProg(0x100000), mkProg(0x300000)}

	rec, err := Record(cfg, OrderOnly, progs, nil, nil, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Replay with more chunks in flight and slower commits.
	rcfg := ReplayConfig(cfg)
	rcfg.ChunkSize = rec.ChunkSize
	rcfg.SimulChunks = 3

	m2 := mem.New()
	m2.Restore(rec.InitialMem)
	obs := &splitCounter{fp: newFingerprint(rec.NProcs)}
	eng := &bulksc.Engine{
		Cfg:     rcfg,
		Progs:   progs,
		Mem:     m2,
		Obs:     obs,
		Policy:  arbiter.NewLogOrder(rec.PI.Entries()),
		Replay:  &logSource{rec: rec, ioIdx: make([]int, rec.NProcs)},
		Perturb: bulksc.DefaultPerturb(7),
	}
	st := eng.Run()
	if !st.Converged {
		t.Fatalf("replay did not converge\n%s%+v", eng.DebugState(), st.PerProc)
	}
	if obs.splits == 0 {
		t.Skip("no unexpected overflow occurred under this configuration — split path not exercised")
	}
	if obs.fp.sum() != rec.Fingerprint {
		t.Fatalf("replay with %d splits diverged from the recording", obs.splits)
	}
	if m2.Hash() != rec.FinalMemHash {
		t.Fatal("final memory differs despite split handling")
	}
	t.Logf("replay committed %d split pieces and still matched the recording", obs.splits)
}

package delorean

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Processors = 4
	c.ChunkSize = 400
	return c
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 13 {
		t.Fatalf("got %d names", len(names))
	}
}

func TestRecordReplayBuiltinWorkload(t *testing.T) {
	w := NewWorkload("barnes", 4, 10000, 7)
	rec, err := Record(smallConfig(), OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mode() != OrderOnly {
		t.Fatalf("mode = %v", rec.Mode())
	}
	if rec.Stats().Instructions == 0 || rec.Stats().Chunks == 0 {
		t.Fatal("empty stats")
	}
	if rec.LogBits(false) <= 0 || rec.LogBits(true) <= 0 {
		t.Fatal("no log bits")
	}
	res, err := rec.Replay(ReplayWith{PerturbSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("perturbed replay diverged")
	}
	if !strings.Contains(rec.Summary(), "OrderOnly") {
		t.Fatalf("summary: %s", rec.Summary())
	}
}

// SimParallel is deprecated: 0 and 1 record normally, and every other
// value is an error from each record entry point rather than a silently
// ignored setting.
func TestRecordRejectsSimParallel(t *testing.T) {
	w := NewWorkload("barnes", 4, 2000, 7)
	for _, par := range []int{2, 4, -1} {
		cfg := smallConfig()
		cfg.SimParallel = par
		if _, err := Record(cfg, OrderOnly, w); err == nil || !strings.Contains(err.Error(), "SimParallel") {
			t.Errorf("Record SimParallel=%d: err = %v, want a SimParallel error", par, err)
		}
		if _, _, err := RecordTraced(cfg, OrderOnly, w); err == nil {
			t.Errorf("RecordTraced SimParallel=%d: accepted", par)
		}
	}
	for _, par := range []int{0, 1} {
		cfg := smallConfig()
		cfg.SimParallel = par
		if _, err := Record(cfg, OrderOnly, w); err != nil {
			t.Errorf("Record SimParallel=%d: %v", par, err)
		}
	}
}

func TestAllModes(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		w := NewWorkload("water-ns", 4, 8000, 3)
		rec, err := Record(smallConfig(), mode, w)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res, err := rec.Replay(ReplayWith{PerturbSeed: 5})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Deterministic {
			t.Fatalf("%v: diverged", mode)
		}
	}
}

func TestCustomWorkloadRace(t *testing.T) {
	// A racy custom program: replay must reproduce it; unordered
	// re-execution (different arbiter timing) must diverge.
	a := NewAsm()
	a.LockInit()
	a.Ldi(1, 64) // racy word
	a.Ldi(4, 0)
	a.Ldi(5, 400)
	a.Label("loop")
	a.Ld(2, 1, 0)
	a.Muli(2, 2, 3)
	a.Addi(2, 2, 1)
	a.Add(2, 2, 15)
	a.St(1, 0, 2)
	a.Work(20, 3)
	a.Addi(4, 4, 1)
	a.Blt(4, 5, "loop")
	a.Halt()
	w := CustomWorkload("race-demo", 4, a.Assemble())

	rec, err := Record(smallConfig(), OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Replay(ReplayWith{PerturbSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("replay diverged")
	}
	same, _, err := rec.RunUnordered(true)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("unordered re-execution reproduced the racy outcome — race not timing-sensitive")
	}
}

func TestStratifiedFacade(t *testing.T) {
	cfg := smallConfig()
	cfg.Stratify = 1
	w := NewWorkload("lu", 4, 10000, 2)
	rec, err := Record(cfg, OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.StratifiedLogBits() == 0 {
		t.Fatal("no stratified log")
	}
	res, err := rec.Replay(ReplayWith{UseStratified: true, PerturbSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("stratified replay diverged")
	}
}

func TestPicoLogTinyAndEstimate(t *testing.T) {
	cfg := smallConfig()
	cfg.ChunkSize = 1000
	w := NewWorkload("water-sp", 4, 20000, 4)
	rec, err := Record(cfg, PicoLog, w)
	if err != nil {
		t.Fatal(err)
	}
	perK := rec.BitsPerProcPerKinst()
	if perK > 1.0 {
		t.Fatalf("PicoLog log = %.3f bits/proc/kinst", perK)
	}
	gb := rec.EstimateLogGBPerDay(5e9)
	if gb < 0 || gb > 1000 {
		t.Fatalf("GB/day estimate out of sane range: %g", gb)
	}
}

func TestModeStringsFacade(t *testing.T) {
	if OrderOnly.String() != "OrderOnly" || PicoLog.String() != "PicoLog" || OrderSize.String() != "Order&Size" {
		t.Fatal("mode strings wrong")
	}
}

func TestCustomWorkloadHeterogeneous(t *testing.T) {
	// Producer/consumer pair: distinct programs per processor.
	prod := NewAsm()
	prod.Ldi(1, 0x40)
	prod.Ldi(2, 7)
	prod.St(1, 0, 2)
	prod.Halt()
	cons := NewAsm()
	cons.Ldi(1, 0x40)
	cons.Label("spin")
	cons.Ld(2, 1, 0)
	cons.Beq(2, 3, "spin")
	cons.Ldi(4, 0x80)
	cons.St(4, 0, 2)
	cons.Halt()
	w := CustomWorkload("prodcons", 2, prod.Assemble(), cons.Assemble())

	cfg := smallConfig()
	cfg.Processors = 2
	rec, err := Record(cfg, OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Replay(ReplayWith{PerturbSeed: 2})
	if err != nil || !res.Deterministic {
		t.Fatalf("replay: %v det=%v", err, res.Deterministic)
	}
}

func TestCustomWorkloadBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewAsm()
	a.Halt()
	b := NewAsm()
	b.Halt()
	CustomWorkload("bad", 3, a.Assemble(), b.Assemble())
}

func TestSaveLoadReplay(t *testing.T) {
	w := NewWorkload("raytrace", 4, 9000, 2)
	rec, err := Record(smallConfig(), OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Fresh process simulation: regenerate the workload and load.
	w2 := NewWorkload("raytrace", 4, 9000, 2)
	loaded, err := LoadRecording(&buf, smallConfig(), w2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Replay(ReplayWith{PerturbSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("replay of loaded recording diverged")
	}
}

func TestLoadRecordingProcMismatch(t *testing.T) {
	w := NewWorkload("barnes", 4, 5000, 1)
	rec, err := Record(smallConfig(), OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w8 := NewWorkload("barnes", 8, 5000, 1)
	_, err = LoadRecording(&buf, smallConfig(), w8)
	if err == nil {
		t.Fatal("processor-count mismatch accepted")
	}
	// The mismatch is a typed sentinel so callers (the serving daemon's
	// 400 mapping) can tell a wrong spec from a corrupt container.
	if !errors.Is(err, ErrWorkloadMismatch) {
		t.Fatalf("mismatch error %v does not wrap ErrWorkloadMismatch", err)
	}
}

func TestUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorkload("nope", 4, 1000, 1)
}

func TestIntervalReplayFacade(t *testing.T) {
	cfg := smallConfig()
	cfg.CheckpointEvery = 20
	w := NewWorkload("raytrace", 4, 15000, 6)
	rec, err := Record(cfg, OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoints() == 0 {
		t.Fatal("no checkpoints taken")
	}
	for idx := 0; idx < rec.Checkpoints(); idx++ {
		res, err := rec.ReplayFromCheckpoint(idx, ReplayWith{PerturbSeed: uint64(idx + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic {
			t.Fatalf("interval %d diverged", idx)
		}
	}
}

// TestIntervalReplayFacadeRejectsStratified: stratum boundaries do not
// align with checkpoint cuts, so a stratified interval replay is an
// error rather than a silent exact-order replay.
func TestIntervalReplayFacadeRejectsStratified(t *testing.T) {
	cfg := smallConfig()
	cfg.CheckpointEvery = 20
	cfg.Stratify = 1
	w := NewWorkload("raytrace", 4, 15000, 6)
	rec, err := Record(cfg, OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoints() == 0 || rec.StratifiedLogBits() == 0 {
		t.Fatal("setup: need checkpoints and a stratified log")
	}
	res, err := rec.ReplayFromCheckpoint(0, ReplayWith{UseStratified: true})
	if err == nil {
		t.Fatalf("stratified interval replay accepted: %+v", res)
	}
	if !strings.Contains(err.Error(), "stratified") {
		t.Fatalf("error does not name the stratified request: %v", err)
	}
}

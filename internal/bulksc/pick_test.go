package bulksc

import (
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/mem"
	"delorean/internal/workload"
)

// TestStepPicksMatchScan runs the engine with checkPicks on, so every
// core pick takes without a scan is checked against one (pick panics
// on a difference): over the engine-golden scenarios, and over the
// quick workloads the spin-skipping tests run, whose spinners park,
// with and without hit/miss flips (flips turn parking off), at 4
// processors and at a Figure 12 point of 16, with a commit target that
// stops the run mid-way, and with instruction budgets that run out
// while cores are parked (the engine then catches them up and steps
// on).
func TestStepPicksMatchScan(t *testing.T) {
	checkPicks.Store(true)
	defer checkPicks.Store(false)
	before := checkedPicks.Load()

	for _, s := range goldenScenarios() {
		runGoldenScenario(t, s)
	}
	run := func(name string, e *Engine) {
		t.Helper()
		st := e.Run()
		mem.Put(e.Mem)
		if !st.Converged && !st.Stopped && e.Cfg.MaxInsts == testConfig(1).MaxInsts {
			t.Errorf("%s: run neither converged nor stopped: %+v", name, st)
		}
	}
	quick := workload.Params{NProcs: 4, Scale: 8_000, Seed: 1}
	for _, name := range workload.Names() {
		w := workload.Get(name, quick)
		cfg := testConfig(quick.NProcs)
		run(name, &Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs})
		run(name+"/flips", &Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs,
			Perturb: DefaultPerturb(3)})
		run(name+"/stop", &Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs,
			StopAtCommit: 40})
		for budget := uint64(5_000); budget < 60_000; budget += 1_237 {
			short := cfg
			short.MaxInsts = budget
			run(name+"/budget", &Engine{Cfg: short, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs})
		}
	}
	fig12 := quick
	fig12.NProcs = 16
	for _, name := range []string{"barnes", "fft", "ocean", "raytrace", "water-sp"} {
		w := workload.Get(name, fig12)
		cfg := testConfig(16)
		cfg.ChunkSize = 1000
		cfg.SimulChunks = 4
		run(name+"/16p", &Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs,
			PicoLog: true, Policy: arbiter.NewRoundRobin(16)})
	}
	if checkedPicks.Load() == before {
		t.Fatal("no pick was taken without a scan")
	}
}

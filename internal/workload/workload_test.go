package workload

import (
	"slices"
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

func testParams(n, scale int) Params {
	return Params{NProcs: n, Scale: scale, Seed: 7}
}

func testConfig(n int) sim.Config {
	c := sim.Default8()
	c.NProcs = n
	c.MaxInsts = 50_000_000
	return c
}

func TestRegistryComplete(t *testing.T) {
	if len(Names()) != 13 {
		t.Fatalf("Names() has %d entries, want 13", len(Names()))
	}
	if len(SplashNames()) != 11 {
		t.Fatalf("SplashNames() has %d entries, want 11", len(SplashNames()))
	}
	// The registry additionally holds syskernel, which Names() hides from
	// the benchmark sweeps.
	if len(All()) != 14 {
		t.Fatalf("registry has %d entries, want 14", len(All()))
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate workload %q", n)
		}
		seen[n] = true
	}
	if seen["syskernel"] {
		t.Fatal("syskernel leaked into Names(); the experiment sweeps would pick it up")
	}
	for _, n := range append(Names(), "syskernel") {
		if !Known(n) {
			t.Fatalf("Known(%q) = false for a registered workload", n)
		}
	}
	if Known("quicksort") {
		t.Fatal(`Known("quicksort") = true`)
	}
}

// TestSysKernelPinned: syskernel's programs must be a pure function of
// (procs, scale) — Seed moves only the device schedules — and must be
// exactly SysKernelProgram(scale) replicated, because saved recordings
// (the golden fixture, server uploads) regenerate programs from the
// spec alone.
func TestSysKernelPinned(t *testing.T) {
	w := Get("syskernel", Params{NProcs: 4, Scale: 130, Seed: 7})
	if len(w.Progs) != 4 {
		t.Fatalf("%d programs, want 4", len(w.Progs))
	}
	ref := SysKernelProgram(130)
	for p, prog := range w.Progs {
		if len(prog.Insts) != len(ref.Insts) {
			t.Fatalf("proc %d: program length %d, want %d", p, len(prog.Insts), len(ref.Insts))
		}
		for i := range prog.Insts {
			if prog.Insts[i] != ref.Insts[i] {
				t.Fatalf("proc %d instruction %d differs from SysKernelProgram", p, i)
			}
		}
	}
	if w.Devs == nil || len(w.Devs.Interrupts) == 0 || len(w.Devs.DMA) == 0 {
		t.Fatal("syskernel has no device activity")
	}
	other := Get("syskernel", Params{NProcs: 4, Scale: 130, Seed: 99})
	for i := range other.Progs[0].Insts {
		if other.Progs[0].Insts[i] != ref.Insts[i] {
			t.Fatalf("Seed changed instruction %d — programs must not depend on Seed", i)
		}
	}
}

// TestWorkloadImagesCanonical: every generator builds its initial image
// in the canonical form recordings store — nonzero words at strictly
// increasing addresses — and a run's memory holds exactly that image.
func TestWorkloadImagesCanonical(t *testing.T) {
	for _, p := range []Params{{4, 8000, 1}, {8, 100000, 7}} {
		for _, name := range All() {
			w := Get(name, p)
			for i, wd := range w.Image {
				if wd.Val == 0 {
					t.Fatalf("%s %+v: word %d at %#x is zero", name, p, i, wd.Addr)
				}
				if i > 0 && wd.Addr <= w.Image[i-1].Addr {
					t.Fatalf("%s %+v: word %d at %#x does not follow %#x", name, p, i, wd.Addr, w.Image[i-1].Addr)
				}
			}
			m := w.InitMem()
			if !slices.Equal(m.Snapshot(), w.Image) {
				t.Fatalf("%s %+v: the initial memory differs from the image", name, p)
			}
			mem.Put(m)
		}
	}
}

func TestUnknownNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Get("quicksort", testParams(4, 1000))
}

func TestAllWorkloadsRunOnSC(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := Get(name, testParams(4, 6000))
			if len(w.Progs) != 4 {
				t.Fatalf("%d programs", len(w.Progs))
			}
			m := sim.NewMachine(testConfig(4), sim.SC, w.Progs, w.InitMem(), w.Devs)
			st := m.Run()
			if !st.Converged {
				t.Fatalf("did not converge: %d insts", st.Insts)
			}
			if st.Insts < 4*1000 {
				t.Fatalf("suspiciously few instructions: %d", st.Insts)
			}
			if st.MemOps == 0 {
				t.Fatal("no memory operations")
			}
		})
	}
}

func TestAllWorkloadsRunChunked(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := Get(name, testParams(4, 6000))
			cfg := testConfig(4)
			cfg.ChunkSize = 500
			e := &bulksc.Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs}
			st := e.Run()
			if !st.Converged {
				t.Fatalf("did not converge: %d insts, %d wasted\n%s%+v", st.Insts, st.WastedInsts, e.DebugState(), st.PerProc)
			}
			if st.Chunks == 0 {
				t.Fatal("no chunks committed")
			}
		})
	}
}

func TestScaleControlsInstructionCount(t *testing.T) {
	// Kernels without barriers: at small scales barrier spin time (which
	// retires instructions) would swamp the scale knob. Scales are above
	// the per-task minimums.
	for _, name := range []string{"barnes", "fmm", "water-ns", "water-sp"} {
		small := Get(name, testParams(4, 20000))
		big := Get(name, testParams(4, 80000))
		cfg := testConfig(4)
		mSmall := sim.NewMachine(cfg, sim.RC, small.Progs, small.InitMem(), small.Devs)
		stS := mSmall.Run()
		mBig := sim.NewMachine(cfg, sim.RC, big.Progs, big.InitMem(), big.Devs)
		stB := mBig.Run()
		if !stS.Converged || !stB.Converged {
			t.Fatalf("%s: not converged", name)
		}
		if stB.Insts < 2*stS.Insts {
			t.Errorf("%s: scale 4x but insts %d -> %d", name, stS.Insts, stB.Insts)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	for _, name := range Names() {
		a := Get(name, testParams(4, 5000))
		b := Get(name, testParams(4, 5000))
		if len(a.Progs[0].Insts) != len(b.Progs[0].Insts) {
			t.Fatalf("%s: program lengths differ", name)
		}
		for i := range a.Progs[0].Insts {
			if a.Progs[0].Insts[i] != b.Progs[0].Insts[i] {
				t.Fatalf("%s: instruction %d differs", name, i)
			}
		}
	}
}

func TestCommercialWorkloadsHaveDevices(t *testing.T) {
	for _, name := range CommercialNames() {
		w := Get(name, testParams(4, 8000))
		if w.Devs == nil {
			t.Fatalf("%s has no device model", name)
		}
		if len(w.Devs.Interrupts) == 0 {
			t.Fatalf("%s has no interrupts scheduled", name)
		}
		if len(w.Devs.DMA) == 0 {
			t.Fatalf("%s has no DMA scheduled", name)
		}
	}
}

func TestSplashWorkloadsHaveNoDevices(t *testing.T) {
	// The paper evaluates SPLASH-2 without system references.
	for _, name := range SplashNames() {
		if Get(name, testParams(2, 3000)).Devs != nil {
			t.Fatalf("%s unexpectedly has devices", name)
		}
	}
}

func TestWorkloadsShareData(t *testing.T) {
	// Every kernel must actually produce cross-processor dependences —
	// otherwise it tests nothing. Detect via coherence traffic.
	for _, name := range Names() {
		w := Get(name, testParams(4, 6000))
		m := sim.NewMachine(testConfig(4), sim.SC, w.Progs, w.InitMem(), w.Devs)
		st := m.Run()
		if !st.Converged {
			t.Fatalf("%s: not converged", name)
		}
		if st.C2CTransfers == 0 && st.Upgrades == 0 {
			t.Errorf("%s: no coherence traffic — no actual sharing?", name)
		}
	}
}

func TestRaytraceContentionConcentrated(t *testing.T) {
	// raytrace's distinguishing feature: a single hot lock. Verify its
	// chunked run squashes more than water-sp's (the most private
	// kernel) by a wide margin.
	cfg := testConfig(4)
	cfg.ChunkSize = 500
	run := func(name string) bulksc.Stats {
		w := Get(name, testParams(4, 12000))
		e := &bulksc.Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem()}
		return e.Run()
	}
	ray := run("raytrace")
	water := run("water-sp")
	if !ray.Converged || !water.Converged {
		t.Fatal("not converged")
	}
	if ray.Squashes <= water.Squashes {
		t.Errorf("raytrace squashes (%d) not above water-sp (%d)", ray.Squashes, water.Squashes)
	}
}

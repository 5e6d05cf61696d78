package sim

import (
	"reflect"
	"sync"
	"testing"

	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
)

// testConfig returns a small machine for unit tests.
func testConfig(nprocs int) Config {
	c := Default8()
	c.NProcs = nprocs
	c.MaxInsts = 20_000_000
	return c
}

// lockIncProgram builds a program that acquires the lock at lockAddr,
// increments the counter at ctrAddr, releases, and repeats iters times.
func lockIncProgram(lockAddr, ctrAddr uint32, iters int) *isa.Program {
	a := isa.NewAsm()
	a.LockInit()
	a.Ldi(1, int64(lockAddr))
	a.Ldi(2, int64(ctrAddr))
	a.Ldi(3, 0) // i
	a.Ldi(4, int64(iters))
	a.Label("loop")
	a.Lock(1, 5, "l")
	a.Ld(6, 2, 0)
	a.Addi(6, 6, 1)
	a.St(2, 0, 6)
	a.Unlock(1)
	a.Addi(3, 3, 1)
	a.Blt(3, 4, "loop")
	a.Halt()
	return a.Assemble()
}

// atomicIncProgram increments ctrAddr with FADD iters times (no lock).
func atomicIncProgram(ctrAddr uint32, iters int) *isa.Program {
	a := isa.NewAsm()
	a.Ldi(1, int64(ctrAddr))
	a.Ldi(2, 1)
	a.Ldi(3, 0)
	a.Ldi(4, int64(iters))
	a.Label("loop")
	a.Fadd(5, 1, 2)
	a.Addi(3, 3, 1)
	a.Blt(3, 4, "loop")
	a.Halt()
	return a.Assemble()
}

// storeStream writes n consecutive lines starting at base (per-proc
// private region), stressing store-miss behaviour.
func storeStream(base uint32, n int) *isa.Program {
	a := isa.NewAsm()
	a.Ldi(1, int64(base))
	a.Ldi(2, 0)
	a.Ldi(3, int64(n))
	a.Label("loop")
	a.St(1, 0, 2)
	a.Addi(1, 1, isa.LineWords) // next line
	a.Addi(2, 2, 1)
	a.Blt(2, 3, "loop")
	a.Halt()
	return a.Assemble()
}

func run(t *testing.T, cfg Config, model Model, progs []*isa.Program, devs *device.Devices) (Stats, *mem.Memory) {
	t.Helper()
	memory := mem.New()
	m := NewMachine(cfg, model, progs, memory, devs)
	st := m.Run()
	if !st.Converged {
		t.Fatalf("machine did not converge (insts=%d)", st.Insts)
	}
	return st, memory
}

func TestSingleCoreCompletes(t *testing.T) {
	cfg := testConfig(1)
	st, memory := run(t, cfg, SC, []*isa.Program{storeStream(0, 100)}, nil)
	if st.Insts == 0 || st.Cycles == 0 {
		t.Fatal("no work recorded")
	}
	if memory.Load(0+99*isa.LineWords) != 99 {
		t.Fatal("stream stores missing")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// 4 processors, 200 lock-protected increments each: the counter must
	// be exactly 800 under both models. This is the fundamental
	// correctness test of atomics + interleaving.
	const iters = 200
	for _, model := range []Model{SC, RC} {
		cfg := testConfig(4)
		progs := make([]*isa.Program, 4)
		for p := range progs {
			progs[p] = lockIncProgram(8, 16, iters)
		}
		_, memory := run(t, cfg, model, progs, nil)
		if got := memory.Load(16); got != 4*iters {
			t.Errorf("%v: counter = %d, want %d", model, got, 4*iters)
		}
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	const iters = 500
	cfg := testConfig(8)
	progs := make([]*isa.Program, 8)
	for p := range progs {
		progs[p] = atomicIncProgram(64, iters)
	}
	_, memory := run(t, cfg, RC, progs, nil)
	if got := memory.Load(64); got != 8*iters {
		t.Errorf("counter = %d, want %d", got, 8*iters)
	}
}

func TestProcIDRegisters(t *testing.T) {
	// Each proc stores r15 (its ID) to a private slot.
	cfg := testConfig(4)
	progs := make([]*isa.Program, 4)
	for p := range progs {
		a := isa.NewAsm()
		a.Ldi(1, 1000)
		a.Muli(2, 15, isa.LineWords) // r2 = proc * lineWords
		a.Add(1, 1, 2)
		a.St(1, 0, 15)
		a.Halt()
		progs[p] = a.Assemble()
	}
	_, memory := run(t, cfg, SC, progs, nil)
	for p := uint32(0); p < 4; p++ {
		if got := memory.Load(1000 + p*isa.LineWords); got != uint64(p) {
			t.Errorf("proc %d stored %d", p, got)
		}
	}
}

// mixedMissProgram interleaves streaming store misses with dependent
// load hits: the canonical pattern where SC's program-order completion
// chain costs and RC's store buffering wins. The loaded value feeds the
// next store's address, so under SC the dependent load-hit (which chains
// after the store miss) serializes iterations.
func mixedMissProgram(streamBase, hotBase uint32, iters int) *isa.Program {
	a := isa.NewAsm()
	a.Ldi(1, int64(streamBase))
	a.Ldi(2, int64(hotBase))
	a.Ldi(3, 0)
	a.Ldi(4, int64(iters))
	// Seed the hot word with the stride so iterations advance.
	a.Ldi(5, isa.LineWords)
	a.St(2, 0, 5)
	a.Label("loop")
	a.St(1, 0, 3)  // streaming store: miss
	a.Ld(6, 2, 0)  // hot load: hit, but chains after the store under SC
	a.Add(1, 1, 6) // address depends on loaded value
	a.Addi(3, 3, 1)
	a.Blt(3, 4, "loop")
	a.Halt()
	return a.Assemble()
}

func TestRCFasterThanSCOnDependentMix(t *testing.T) {
	progs := func() []*isa.Program {
		ps := make([]*isa.Program, 4)
		for p := range ps {
			// Private regions far apart: no sharing, stream misses.
			ps[p] = mixedMissProgram(uint32(0x100000+p*0x10000), uint32(0x800+p*0x200), 1000)
		}
		return ps
	}
	cfg := testConfig(4)
	stSC, _ := run(t, cfg, SC, progs(), nil)
	stRC, _ := run(t, cfg, RC, progs(), nil)
	if stRC.Cycles > stSC.Cycles {
		t.Fatalf("RC slower than SC: %d vs %d cycles", stRC.Cycles, stSC.Cycles)
	}
	if float64(stRC.Cycles) > 0.8*float64(stSC.Cycles) {
		t.Errorf("RC %d vs SC %d cycles: expected a clear RC win on the dependent mix", stRC.Cycles, stSC.Cycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() (Stats, uint64) {
		cfg := testConfig(4)
		progs := make([]*isa.Program, 4)
		for p := range progs {
			progs[p] = lockIncProgram(8, 16, 100)
		}
		memory := mem.New()
		m := NewMachine(cfg, RC, progs, memory, nil)
		st := m.Run()
		return st, memory.Hash()
	}
	st1, h1 := mk()
	st2, h2 := mk()
	if st1.Cycles != st2.Cycles || st1.Insts != st2.Insts || h1 != h2 {
		t.Fatalf("runs differ: %+v/%x vs %+v/%x", st1, h1, st2, h2)
	}
}

type collectObs struct {
	events []AccessEvent
}

func (c *collectObs) OnAccess(e AccessEvent) { c.events = append(c.events, e) }

func TestObserverSeesGlobalOrder(t *testing.T) {
	cfg := testConfig(2)
	progs := []*isa.Program{
		storeStream(0x1000, 50),
		storeStream(0x2000, 50),
	}
	obs := &collectObs{}
	memory := mem.New()
	m := NewMachine(cfg, SC, progs, memory, nil)
	m.Obs = obs
	st := m.Run()
	if !st.Converged {
		t.Fatal("not converged")
	}
	var accesses uint64
	for _, e := range obs.events {
		accesses += e.Count
	}
	if accesses != st.MemOps {
		t.Fatalf("observer's events stand for %d accesses, machine counted %d", accesses, st.MemOps)
	}
	var lastTime uint64
	perProcMemOp := map[int]uint64{}
	for i, e := range obs.events {
		if e.Time < lastTime {
			t.Fatalf("event %d out of global time order", i)
		}
		lastTime = e.Time
		if e.MemOp != perProcMemOp[e.Proc]+e.Count {
			t.Fatalf("proc %d memop sequence broken at %d", e.Proc, e.MemOp)
		}
		perProcMemOp[e.Proc] = e.MemOp
		if !e.Write {
			t.Fatal("store stream produced a non-write event")
		}
	}
}

func TestInterruptDeliveredAndHandled(t *testing.T) {
	// Program spins on a flag that only the interrupt handler sets.
	a := isa.NewAsm()
	a.SetIntrVec("ih")
	a.Ldi(1, 100) // flag address
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin") // r3 = 0: spin while flag == 0
	a.Halt()
	a.Label("ih")
	a.Ldi(4, 100)
	a.Ldi(5, 1)
	a.St(4, 0, 5)
	a.Iret()
	prog := a.Assemble()

	devs := device.New(1)
	devs.AddInterrupt(device.Interrupt{Time: 3000, Proc: 0, Type: 1, Data: 7})
	devs.Finalize()

	cfg := testConfig(1)
	st, memory := run(t, cfg, SC, []*isa.Program{prog}, devs)
	if st.Interrupts != 1 {
		t.Fatalf("delivered %d interrupts, want 1", st.Interrupts)
	}
	if memory.Load(100) != 1 {
		t.Fatal("handler store missing")
	}
}

func TestDMAWritesMemory(t *testing.T) {
	// One processor spins until the DMA'd word appears.
	a := isa.NewAsm()
	a.Ldi(1, 0x500)
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin")
	a.Halt()
	prog := a.Assemble()

	devs := device.New(1)
	devs.AddDMA(device.DMATransfer{Time: 2000, Addr: 0x500, Data: []uint64{0xdead, 0xbeef}})
	devs.Finalize()

	cfg := testConfig(1)
	st, memory := run(t, cfg, RC, []*isa.Program{prog}, devs)
	if st.DMAs != 1 {
		t.Fatalf("DMAs = %d, want 1", st.DMAs)
	}
	if memory.Load(0x501) != 0xbeef {
		t.Fatal("second DMA word missing")
	}
}

func TestIOReadTimingSensitive(t *testing.T) {
	// The same program reads a port once; with an artificial stall the
	// value should (almost surely) differ — the non-determinism the I/O
	// log exists to capture. We emulate the stall with leading work.
	read := func(pad int) uint64 {
		a := isa.NewAsm()
		a.Work(pad, 9)
		a.Iord(1, 3)
		a.Ldi(2, 0x600)
		a.St(2, 0, 1)
		a.Halt()
		cfg := testConfig(1)
		memory := mem.New()
		m := NewMachine(cfg, SC, []*isa.Program{a.Assemble()}, memory, device.New(7))
		m.Run()
		return memory.Load(0x600)
	}
	if read(0) == read(100000) {
		t.Fatal("port value identical across very different timings")
	}
}

func TestIOOpsCounted(t *testing.T) {
	a := isa.NewAsm()
	a.Iord(1, 0)
	a.Iowr(1, 1)
	a.Halt()
	cfg := testConfig(1)
	st, _ := run(t, cfg, SC, []*isa.Program{a.Assemble()}, nil)
	if st.IOOps != 2 {
		t.Fatalf("IOOps = %d, want 2", st.IOOps)
	}
}

func TestMaxInstsGuard(t *testing.T) {
	// An infinite spin (flag never set) must stop at the budget with
	// Converged == false.
	a := isa.NewAsm()
	a.Ldi(1, 100)
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin")
	a.Halt()
	cfg := testConfig(1)
	cfg.MaxInsts = 10000
	memory := mem.New()
	m := NewMachine(cfg, SC, []*isa.Program{a.Assemble()}, memory, nil)
	st := m.Run()
	if st.Converged {
		t.Fatal("infinite spin reported converged")
	}
}

func TestSharingCausesCoherenceTraffic(t *testing.T) {
	// Two procs ping-pong a line: cache-to-cache transfers must occur.
	progs := make([]*isa.Program, 2)
	for p := range progs {
		progs[p] = atomicIncProgram(0x40, 300)
	}
	cfg := testConfig(2)
	memory := mem.New()
	m := NewMachine(cfg, RC, progs, memory, nil)
	st := m.Run()
	if !st.Converged {
		t.Fatal("not converged")
	}
	if st.C2CTransfers == 0 && st.Upgrades == 0 {
		t.Fatal("no coherence traffic on a shared hot line")
	}
}

func TestStatsPerProcSums(t *testing.T) {
	cfg := testConfig(4)
	progs := make([]*isa.Program, 4)
	for p := range progs {
		progs[p] = storeStream(uint32(0x10000+p*0x4000), 100)
	}
	st, _ := run(t, cfg, SC, progs, nil)
	var insts, memops uint64
	for _, pp := range st.PerProc {
		insts += pp.Insts
		memops += pp.MemOps
		if pp.Cycles > st.Cycles {
			t.Fatal("per-proc cycles exceed makespan")
		}
	}
	if insts != st.Insts || memops != st.MemOps {
		t.Fatalf("per-proc sums (%d,%d) != totals (%d,%d)", insts, memops, st.Insts, st.MemOps)
	}
}

// poolRun is everything a classic run produces: stats, the global access
// stream and the final memory image's hash.
type poolRun struct {
	stats   Stats
	events  []AccessEvent
	memHash uint64
}

// poolProgs is a small contended workload (locks, atomics, a private
// stream) that leaves caches and directory well populated.
func poolProgs() []*isa.Program {
	return []*isa.Program{
		lockIncProgram(0x1000, 0x2000, 100),
		lockIncProgram(0x1000, 0x2000, 100),
		atomicIncProgram(0x3000, 300),
		storeStream(0x8000, 600),
	}
}

func runPooled(cfg Config, model Model) poolRun {
	obs := &collectObs{}
	memory := mem.New()
	m := NewMachine(cfg, model, poolProgs(), memory, nil)
	m.Obs = obs
	st := m.Run()
	return poolRun{stats: st, events: obs.events, memHash: memory.Hash()}
}

// poolConfig has an L2 geometry no other test in this package uses, so
// the first run under it builds a fresh hierarchy.
func poolConfig() Config {
	c := testConfig(4)
	c.L2Bytes = 2 << 20
	return c
}

// A run on a hierarchy released by a run with the same geometry but
// different latencies is bit-identical to a run on a fresh one, under
// every model.
func TestMachinePooledHierarchyMatchesFresh(t *testing.T) {
	cfg := poolConfig()
	slow := cfg
	slow.L1Lat, slow.L2Lat, slow.MemLat = 3, 29, 450
	for _, model := range []Model{SC, RC, TSO} {
		want := runPooled(cfg, model)
		if !want.stats.Converged || want.stats.C2CTransfers+want.stats.Upgrades == 0 {
			t.Fatalf("%v: reference run leaves no coherence state: %+v", model, want.stats)
		}
		for i := 0; i < 3; i++ {
			if st := runPooled(slow, model).stats; st.Cycles == want.stats.Cycles {
				t.Fatalf("%v: latencies had no effect on the run (cycles %d)", model, st.Cycles)
			}
			if got := runPooled(cfg, model); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v round %d: run after a different-latency run differs from fresh:\n got %+v\nwant %+v",
					model, i, got.stats, want.stats)
			}
		}
	}
}

// Concurrent simulations of one geometry acquire and release pooled
// hierarchies at once (as runner.Map and segmented replay workers do);
// every run must still match its serial reference.
func TestMemSysPoolConcurrent(t *testing.T) {
	fast := poolConfig()
	slow := fast
	slow.L2Lat, slow.MemLat = 29, 450
	cfgs := []Config{fast, slow}
	want := []poolRun{runPooled(fast, RC), runPooled(slow, RC)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % 2
				if got := runPooled(cfgs[k], RC); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d run %d: differs from its serial reference:\n got %+v\nwant %+v",
						g, i, got.stats, want[k].stats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

package bulksc

import (
	"math"
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/chunk"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

func testConfig(nprocs int) sim.Config {
	c := sim.Default8()
	c.NProcs = nprocs
	c.MaxInsts = 20_000_000
	return c
}

// lockIncProgram: iters lock-protected increments of the counter.
func lockIncProgram(lockAddr, ctrAddr uint32, iters int) *isa.Program {
	a := isa.NewAsm()
	a.LockInit()
	a.Ldi(1, int64(lockAddr))
	a.Ldi(2, int64(ctrAddr))
	a.Ldi(3, 0)
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

func storeStream(base uint32, n int) *isa.Program {
	a := isa.NewAsm()
	a.Ldi(1, int64(base))
	a.Ldi(2, 0)
	a.Ldi(3, int64(n))
	a.Label("loop")
	a.St(1, 0, 2)
	a.Addi(1, 1, isa.LineWords)
	a.Addi(2, 2, 1)
	a.Blt(2, 3, "loop")
	a.Halt()
	return a.Assemble()
}

func runEngine(t *testing.T, e *Engine) Stats {
	t.Helper()
	if e.Mem == nil {
		e.Mem = mem.New()
	}
	st := e.Run()
	if !st.Converged {
		t.Fatalf("engine did not converge: insts=%d wasted=%d chunks=%d", st.Insts, st.WastedInsts, st.Chunks)
	}
	return st
}

func TestSingleCoreChunkedCompletes(t *testing.T) {
	memory := mem.New()
	e := &Engine{Cfg: testConfig(1), Progs: []*isa.Program{storeStream(0x1000, 200)}, Mem: memory}
	st := runEngine(t, e)
	if memory.Load(0x1000+199*isa.LineWords) != 199 {
		t.Fatal("stores missing after commit")
	}
	if st.Chunks == 0 {
		t.Fatal("no chunks committed")
	}
	// Stores must NOT be visible before their chunk commits; with the run
	// finished, everything is committed. Spot-check chunk accounting.
	if st.Insts == 0 || st.Cycles == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestChunkStoreForwarding(t *testing.T) {
	// Store then load the same address within one chunk: the load must
	// see the buffered value, not memory.
	a := isa.NewAsm()
	a.Ldi(1, 0x2000)
	a.Ldi(2, 77)
	a.St(1, 0, 2)
	a.Ld(3, 1, 0)
	a.Ldi(4, 0x2004)
	a.St(4, 0, 3) // persist the observation
	a.Halt()
	memory := mem.New()
	e := &Engine{Cfg: testConfig(1), Progs: []*isa.Program{a.Assemble()}, Mem: memory}
	runEngine(t, e)
	if memory.Load(0x2004) != 77 {
		t.Fatalf("in-chunk forwarding failed: %d", memory.Load(0x2004))
	}
}

func TestCrossChunkSameProcForwarding(t *testing.T) {
	// A store in an earlier (still uncommitted) chunk must be visible to
	// later chunks of the same processor. Force a chunk boundary with a
	// tiny chunk size.
	cfg := testConfig(1)
	cfg.ChunkSize = 8
	a := isa.NewAsm()
	a.Ldi(1, 0x3000)
	a.Ldi(2, 55)
	a.St(1, 0, 2)
	a.Work(20, 9) // cross a chunk boundary
	a.Ld(3, 1, 0)
	a.Ldi(4, 0x3004)
	a.St(4, 0, 3)
	a.Halt()
	memory := mem.New()
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Mem: memory}
	runEngine(t, e)
	if memory.Load(0x3004) != 55 {
		t.Fatalf("cross-chunk forwarding failed: %d", memory.Load(0x3004))
	}
}

func TestLockMutualExclusionChunked(t *testing.T) {
	// The fundamental chunked-execution correctness test: lock handoff
	// works via commit-triggered squash, and the counter is exact.
	const iters = 150
	cfg := testConfig(4)
	cfg.ChunkSize = 200 // small chunks: more commits, more handoffs
	progs := make([]*isa.Program, 4)
	for p := range progs {
		progs[p] = lockIncProgram(8, 16, iters)
	}
	memory := mem.New()
	e := &Engine{Cfg: cfg, Progs: progs, Mem: memory}
	st := runEngine(t, e)
	if got := memory.Load(16); got != 4*iters {
		t.Fatalf("counter = %d, want %d", got, 4*iters)
	}
	if st.Squashes == 0 {
		t.Fatal("lock contention produced no squashes (handoff path untested)")
	}
}

func TestAtomicFetchAddChunked(t *testing.T) {
	const iters = 300
	cfg := testConfig(8)
	cfg.ChunkSize = 100
	progs := make([]*isa.Program, 8)
	for p := range progs {
		progs[p] = atomicIncProgram(64, iters)
	}
	memory := mem.New()
	e := &Engine{Cfg: cfg, Progs: progs, Mem: memory}
	runEngine(t, e)
	if got := memory.Load(64); got != 8*iters {
		t.Fatalf("counter = %d, want %d", got, 8*iters)
	}
}

type collectObs struct {
	NopObserver
	commits    []CommitEvent
	squashes   int
	interrupts []uint64 // handler seqIDs
	ioReads    []uint64
	dmaSlots   []uint64
}

// OnCommit keeps the event without its callback-scoped signatures: the
// engine reuses the chunk they point into.
func (c *collectObs) OnCommit(ev CommitEvent) {
	ev.RSig, ev.WSig = nil, nil
	c.commits = append(c.commits, ev)
}
func (c *collectObs) OnSquash(int, uint64, int, int)    { c.squashes++ }
func (c *collectObs) OnIORead(_ int, _ int64, v uint64) { c.ioReads = append(c.ioReads, v) }
func (c *collectObs) OnInterrupt(_ int, seq uint64, _, _ int64, _ bool) {
	c.interrupts = append(c.interrupts, seq)
}
func (c *collectObs) OnDMACommit(slot uint64, _ uint32, _ []uint64) {
	c.dmaSlots = append(c.dmaSlots, slot)
}

func TestCommitEventsWellFormed(t *testing.T) {
	cfg := testConfig(2)
	cfg.ChunkSize = 100
	obs := &collectObs{}
	e := &Engine{
		Cfg:   cfg,
		Progs: []*isa.Program{storeStream(0x1000, 300), storeStream(0x9000, 300)},
		Obs:   obs,
	}
	st := runEngine(t, e)
	if uint64(len(obs.commits)) != st.Chunks {
		t.Fatalf("observer saw %d commits, stats %d", len(obs.commits), st.Chunks)
	}
	perProcSeq := map[int]uint64{}
	var lastTime uint64
	var lastSlot uint64
	for i, ev := range obs.commits {
		if ev.Time < lastTime {
			t.Fatalf("commit %d out of time order", i)
		}
		lastTime = ev.Time
		if i > 0 && ev.Slot != lastSlot+1 {
			t.Fatalf("slot gap at %d: %d -> %d", i, lastSlot, ev.Slot)
		}
		lastSlot = ev.Slot
		if want, seen := perProcSeq[ev.Proc], ev.SeqID; seen != want {
			t.Fatalf("proc %d seq %d, want %d", ev.Proc, seen, want)
		}
		perProcSeq[ev.Proc]++
		if ev.Size < 0 || ev.Size > cfg.ChunkSize {
			t.Fatalf("chunk size %d out of range", ev.Size)
		}
	}
	// Sum of committed sizes + I/O = useful instructions.
	var sum uint64
	for _, ev := range obs.commits {
		sum += uint64(ev.Size)
	}
	if sum != st.Insts {
		t.Fatalf("committed sizes sum %d != useful insts %d", sum, st.Insts)
	}
}

func TestRoundRobinPolicyCompletes(t *testing.T) {
	cfg := testConfig(4)
	cfg.ChunkSize = 100
	progs := make([]*isa.Program, 4)
	for p := range progs {
		progs[p] = lockIncProgram(8, 16, 60)
	}
	memory := mem.New()
	rr := arbiter.NewRoundRobin(4)
	e := &Engine{Cfg: cfg, Progs: progs, Mem: memory, Policy: rr, PicoLog: true}
	st := runEngine(t, e)
	if got := memory.Load(16); got != 4*60 {
		t.Fatalf("counter = %d, want %d", got, 4*60)
	}
	if !rr.AllDone() {
		t.Fatal("round robin still has live procs")
	}
	_ = st
}

func TestRoundRobinCommitsInterleaveFairly(t *testing.T) {
	cfg := testConfig(3)
	cfg.ChunkSize = 50
	obs := &collectObs{}
	progs := make([]*isa.Program, 3)
	for p := range progs {
		progs[p] = storeStream(uint32(0x10000+p*0x8000), 200)
	}
	e := &Engine{Cfg: cfg, Progs: progs, Obs: obs, Policy: arbiter.NewRoundRobin(3), PicoLog: true}
	runEngine(t, e)
	// While all three run, commit procs must rotate 0,1,2,0,1,2...
	for i := 0; i+2 < len(obs.commits)-6; i += 3 {
		a, b, c := obs.commits[i].Proc, obs.commits[i+1].Proc, obs.commits[i+2].Proc
		if a != 0 || b != 1 || c != 2 {
			t.Fatalf("round %d order: %d %d %d", i/3, a, b, c)
		}
	}
}

func TestOverflowTruncation(t *testing.T) {
	// Write 5 lines mapping to the same L1 set within one chunk: with a
	// 4-way L1 the chunk must truncate with reason Overflow.
	cfg := testConfig(1)
	cfg.ChunkSize = 2000
	numSets := uint32(cfg.L1Bytes / (isa.LineBytes * cfg.L1Ways)) // 256
	stride := numSets * isa.LineWords                             // words per set-conflict step
	a := isa.NewAsm()
	a.Ldi(1, 0)
	a.Ldi(2, 9)
	for i := 0; i < 6; i++ {
		a.St(1, int64(uint32(i)*stride), 2)
	}
	a.Halt()
	obs := &collectObs{}
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Obs: obs}
	st := runEngine(t, e)
	if st.TruncBy[chunk.Overflow] == 0 {
		t.Fatalf("no overflow truncation: %v", st.TruncBy)
	}
	// All six stores must still land.
	for i := 0; i < 6; i++ {
		if e.Mem.Load(uint32(i)*stride) != 9 {
			t.Fatalf("store %d lost across truncation", i)
		}
	}
}

func TestUncachedIOTruncatesAndLogs(t *testing.T) {
	a := isa.NewAsm()
	a.Work(30, 9)
	a.Iord(1, 5)
	a.Ldi(2, 0x100)
	a.St(2, 0, 1)
	a.Work(30, 9)
	a.Halt()
	obs := &collectObs{}
	e := &Engine{Cfg: testConfig(1), Progs: []*isa.Program{a.Assemble()}, Obs: obs, Devs: device.New(3)}
	st := runEngine(t, e)
	if st.TruncBy[chunk.Uncached] != 1 {
		t.Fatalf("uncached truncations = %v", st.TruncBy)
	}
	if len(obs.ioReads) != 1 {
		t.Fatalf("observer saw %d I/O reads", len(obs.ioReads))
	}
	if e.Mem.Load(0x100) != obs.ioReads[0] {
		t.Fatal("stored I/O value mismatch")
	}
	if st.IOOps != 1 {
		t.Fatalf("IOOps = %d", st.IOOps)
	}
}

func TestInterruptAtChunkBoundary(t *testing.T) {
	// Spin on a flag only the handler sets; the interrupt must be
	// delivered at a chunk boundary and the handler seqID observed.
	a := isa.NewAsm()
	a.SetIntrVec("ih")
	a.Ldi(1, 0x200)
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin")
	a.Halt()
	a.Label("ih")
	a.Ldi(4, 0x200)
	a.Ldi(5, 1)
	a.St(4, 0, 5)
	a.Iret()

	devs := device.New(1)
	devs.AddInterrupt(device.Interrupt{Time: 5000, Proc: 0, Type: 2, Data: 42})
	devs.Finalize()

	cfg := testConfig(1)
	cfg.ChunkSize = 300
	obs := &collectObs{}
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Obs: obs, Devs: devs}
	st := runEngine(t, e)
	if st.Interrupts != 1 || len(obs.interrupts) != 1 {
		t.Fatalf("interrupts = %d / %d", st.Interrupts, len(obs.interrupts))
	}
	if e.Mem.Load(0x200) != 1 {
		t.Fatal("handler store missing")
	}
}

func TestHighPriorityInterruptSquashesChunk(t *testing.T) {
	a := isa.NewAsm()
	a.SetIntrVec("ih")
	a.Ldi(1, 0x200)
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin")
	a.Halt()
	a.Label("ih")
	a.Ldi(4, 0x200)
	a.Ldi(5, 1)
	a.St(4, 0, 5)
	a.Iret()

	devs := device.New(1)
	devs.AddInterrupt(device.Interrupt{Time: 5000, Proc: 0, Type: 1, Data: 1, HighPriority: true})
	devs.Finalize()

	cfg := testConfig(1)
	cfg.ChunkSize = 100000 // huge chunk: boundary far away, must squash
	obs := &collectObs{}
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Obs: obs, Devs: devs}
	st := runEngine(t, e)
	if st.Interrupts != 1 {
		t.Fatalf("interrupts = %d", st.Interrupts)
	}
	if obs.squashes == 0 {
		t.Fatal("high-priority interrupt did not squash the running chunk")
	}
	if e.Mem.Load(0x200) != 1 {
		t.Fatal("handler store missing")
	}
}

func TestDMACommitsViaArbiter(t *testing.T) {
	// Proc 0 spins until DMA'd data appears; the DMA must commit through
	// the arbiter and be observed with a slot.
	a := isa.NewAsm()
	a.Ldi(1, 0x500)
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin")
	a.Ldi(4, 0x600)
	a.St(4, 0, 2)
	a.Halt()

	devs := device.New(1)
	devs.AddDMA(device.DMATransfer{Time: 3000, Addr: 0x500, Data: []uint64{0xabc}})
	devs.Finalize()

	cfg := testConfig(1)
	cfg.ChunkSize = 200
	obs := &collectObs{}
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Obs: obs, Devs: devs}
	st := runEngine(t, e)
	if st.DMAs != 1 || len(obs.dmaSlots) != 1 {
		t.Fatalf("DMAs = %d, observed %d", st.DMAs, len(obs.dmaSlots))
	}
	if e.Mem.Load(0x600) != 0xabc {
		t.Fatal("spun value not persisted")
	}
}

func TestDMASquashesConflictingReader(t *testing.T) {
	// A chunk that read the DMA target before the DMA commits must be
	// squashed (it observed stale data).
	a := isa.NewAsm()
	a.Ldi(1, 0x500)
	a.Label("spin")
	a.Ld(2, 1, 0)
	a.Beq(2, 3, "spin")
	a.Halt()
	devs := device.New(1)
	devs.AddDMA(device.DMATransfer{Time: 4000, Addr: 0x500, Data: []uint64{1}})
	devs.Finalize()
	cfg := testConfig(1)
	cfg.ChunkSize = 100000 // the spin stays inside one chunk
	obs := &collectObs{}
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Obs: obs, Devs: devs}
	runEngine(t, e)
	if obs.squashes == 0 {
		t.Fatal("DMA commit did not squash the conflicting spinning chunk")
	}
}

func TestDeterministicRecording(t *testing.T) {
	mk := func() (Stats, uint64, int) {
		cfg := testConfig(4)
		cfg.ChunkSize = 150
		progs := make([]*isa.Program, 4)
		for p := range progs {
			progs[p] = lockIncProgram(8, 16, 80)
		}
		memory := mem.New()
		obs := &collectObs{}
		e := &Engine{Cfg: cfg, Progs: progs, Mem: memory, Obs: obs}
		st := e.Run()
		return st, memory.Hash(), len(obs.commits)
	}
	s1, h1, c1 := mk()
	s2, h2, c2 := mk()
	if s1.Cycles != s2.Cycles || h1 != h2 || c1 != c2 {
		t.Fatalf("recording runs differ: %d/%x/%d vs %d/%x/%d", s1.Cycles, h1, c1, s2.Cycles, h2, c2)
	}
}

func TestBulkSCCompetitiveWithRC(t *testing.T) {
	// On low-conflict workloads, chunked execution should be within a
	// modest factor of RC (the BulkSC result the paper builds on).
	progs := func() []*isa.Program {
		ps := make([]*isa.Program, 4)
		for p := range ps {
			ps[p] = storeStream(uint32(0x100000+p*0x10000), 2000)
		}
		return ps
	}
	cfg := testConfig(4)
	rc := sim.NewMachine(cfg, sim.RC, progs(), mem.New(), nil)
	rcStats := rc.Run()

	e := &Engine{Cfg: cfg, Progs: progs(), Mem: mem.New()}
	chunkStats := e.Run()
	if !chunkStats.Converged {
		t.Fatal("not converged")
	}
	ratio := float64(rcStats.Cycles) / float64(chunkStats.Cycles)
	if ratio < 0.7 {
		t.Fatalf("BulkSC %.2fx of RC speed — too slow (RC %d vs chunked %d cycles)", ratio, rcStats.Cycles, chunkStats.Cycles)
	}
}

func TestWastedWorkAccounted(t *testing.T) {
	cfg := testConfig(4)
	cfg.ChunkSize = 400
	progs := make([]*isa.Program, 4)
	for p := range progs {
		progs[p] = atomicIncProgram(64, 400) // heavy conflicts
	}
	e := &Engine{Cfg: cfg, Progs: progs, Mem: mem.New()}
	st := runEngine(t, e)
	if st.Squashes == 0 || st.WastedInsts == 0 {
		t.Fatalf("contended run reported no waste: %+v", st)
	}
}

func TestSpecLinesReleasedOnCommit(t *testing.T) {
	// Stream enough stores through one set that, if spec-line accounting
	// leaked, execution would deadlock or truncate forever.
	cfg := testConfig(1)
	cfg.ChunkSize = 40
	numSets := uint32(cfg.L1Bytes / (isa.LineBytes * cfg.L1Ways))
	stride := numSets * isa.LineWords
	a := isa.NewAsm()
	a.Ldi(1, 0)
	a.Ldi(2, 1)
	a.Ldi(3, 0)
	a.Ldi(4, 40)
	a.Label("loop")
	a.St(1, 0, 2)
	a.Addi(1, 1, int64(stride))
	a.Addi(3, 3, 1)
	a.Blt(3, 4, "loop")
	a.Halt()
	e := &Engine{Cfg: cfg, Progs: []*isa.Program{a.Assemble()}, Mem: mem.New()}
	st := runEngine(t, e)
	if st.Insts == 0 {
		t.Fatal("no progress")
	}
}

func TestHaltWithEmptyProgram(t *testing.T) {
	a := isa.NewAsm()
	a.Halt()
	e := &Engine{Cfg: testConfig(1), Progs: []*isa.Program{a.Assemble()}, Mem: mem.New()}
	st := runEngine(t, e)
	if st.Chunks != 1 {
		t.Fatalf("expected one (empty) final chunk, got %d", st.Chunks)
	}
}

// TestArbiterWakeupsStayBounded runs four cores that spin on a flag
// nobody sets until the instruction budget ends the run, at chunk size
// 50: a long stream of small commits with the arbiter idle in between.
// The event heap must stay a few entries deep however long the run, and
// the arbiter's sampled statistics must not move.
func TestArbiterWakeupsStayBounded(t *testing.T) {
	progs := make([]*isa.Program, 4)
	for p := range progs {
		a := isa.NewAsm()
		a.LockInit()
		a.Ldi(1, 0x1000)
		a.Ldi(2, 0x2000)
		a.Ldi(4, 0x3000)
		a.Lock(2, 7, "l")
		a.Ld(8, 4, 0)
		a.Addi(8, 8, 1)
		a.St(4, 0, 8)
		a.Unlock(2)
		a.Label("spin")
		a.Ld(3, 1, 0)
		a.Beq(3, 10, "spin")
		a.Halt()
		progs[p] = a.Assemble()
	}
	cfg := testConfig(4)
	cfg.ChunkSize = 50
	cfg.MaxInsts = 30_000
	e := &Engine{Cfg: cfg, Progs: progs, Mem: mem.New()}
	st := e.Run()
	if cap(e.events) > 16 {
		t.Errorf("event heap grew to capacity %d", cap(e.events))
	}
	// The values an engine that pushed a wake-up on every drain, and whose
	// heap grew past 500 entries here, produced.
	as := e.Arbiter().StatsAt(st.Cycles)
	if st.Cycles != 4870 || st.Chunks != 582 || as.Grants != 582 ||
		math.Float64bits(as.ReadyProcsAvg) != 0x3f678cc6124b10b7 ||
		math.Float64bits(as.ActualCommitAvg) != 0x40008f16634900f9 {
		t.Errorf("cycles %d, chunks %d, arbiter %+v (ready %#x, commit %#x); want 4870, 582, 582 grants, %#x, %#x",
			st.Cycles, st.Chunks, as, math.Float64bits(as.ReadyProcsAvg), math.Float64bits(as.ActualCommitAvg),
			uint64(0x3f678cc6124b10b7), uint64(0x40008f16634900f9))
	}
}

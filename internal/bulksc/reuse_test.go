package bulksc

import (
	"reflect"
	"runtime"
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/chunk"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/trace"
)

// reuseProgs is a small contended workload: squashes, truncations and
// per-proc stats all nonzero.
func reuseProgs() []*isa.Program {
	return []*isa.Program{
		lockIncProgram(0x1000, 0x2000, 300),
		lockIncProgram(0x1000, 0x2000, 300),
		atomicIncProgram(0x3000, 1200),
		storeStream(0x8000, 1200),
	}
}

// A traced run must produce the identical Stats to an untraced one —
// tracing is observation-only (the full recording/replay oracle lives in
// internal/diffcheck; this is the engine-level smoke check).
func TestEngineTraceObservationOnly(t *testing.T) {
	plain := runEngine(t, &Engine{Cfg: testConfig(4), Progs: reuseProgs()})

	sink := trace.NewSink(4)
	traced := runEngine(t, &Engine{Cfg: testConfig(4), Progs: reuseProgs(), Trace: sink})
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed stats:\n got %+v\nwant %+v", traced, plain)
	}
	if len(sink.Events()) == 0 {
		t.Fatalf("traced run captured no events")
	}
	if sink.Counters.Get("chunks.committed") != float64(plain.Chunks) {
		t.Errorf("counter chunks.committed = %g, stats say %d",
			sink.Counters.Get("chunks.committed"), plain.Chunks)
	}
	if sink.Counters.Get("cycles") != float64(plain.Cycles) {
		t.Errorf("counter cycles = %g, stats say %d", sink.Counters.Get("cycles"), plain.Cycles)
	}
}

// An engine runs once: a second Run would start from the first run's
// cores, events and stats, so it must panic instead of quietly doubling
// them.
func TestEngineRunTwicePanics(t *testing.T) {
	e := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
	runEngine(t, e)
	defer func() {
		if recover() == nil {
			t.Fatalf("second Run on the same engine did not panic")
		}
	}()
	e.Mem = mem.New()
	e.Run()
}

// A sink sized for the wrong processor count is a wiring bug: Run must
// refuse it loudly rather than panic on a stray index later.
func TestEngineTraceWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("mis-sized trace sink did not panic")
		}
	}()
	e := &Engine{Cfg: testConfig(4), Progs: reuseProgs(), Mem: mem.New(), Trace: trace.NewSink(2)}
	e.Run()
}

// poolConfig is testConfig(4) with an L2 geometry no other test in this
// package uses, so the first run under it builds a fresh cache
// hierarchy and later runs draw hierarchies other runs released. Small
// chunks give the commit log some length.
func poolConfig() sim.Config {
	c := testConfig(4)
	c.L2Bytes = 2 << 20
	c.ChunkSize = 200
	return c
}

// poolRun is everything a run produces: stats, the commit log and the
// final memory image's hash.
type poolRun struct {
	stats   Stats
	commits []CommitEvent
	memHash uint64
}

// commitLog records commits (without the callback-scoped signatures)
// and closes cancel, if set, at the given commit.
type commitLog struct {
	NopObserver
	commits  []CommitEvent
	cancelAt int
	cancel   chan struct{}
}

func (l *commitLog) OnCommit(ev CommitEvent) {
	ev.RSig, ev.WSig = nil, nil
	l.commits = append(l.commits, ev)
	if l.cancel != nil && len(l.commits) == l.cancelAt {
		close(l.cancel)
	}
}

// runPooled runs reuseProgs on a new engine. cancelAt > 0 cancels the
// run at that commit, leaving a warm hierarchy mid-run.
func runPooled(cfg sim.Config, cancelAt int) poolRun {
	obs := &commitLog{cancelAt: cancelAt}
	e := &Engine{Cfg: cfg, Progs: reuseProgs(), Mem: mem.New(), Obs: obs}
	if cancelAt > 0 {
		obs.cancel = make(chan struct{})
		e.Cancel = obs.cancel
	}
	st := e.Run()
	return poolRun{stats: st, commits: obs.commits, memHash: e.Mem.Hash()}
}

// A run on a hierarchy released by another run — one with the same
// geometry but different latencies, or one cancelled mid-run — must be
// bit-identical to a run on a fresh hierarchy: stats, commit log and
// memory.
func TestEnginePooledHierarchyMatchesFresh(t *testing.T) {
	cfg := poolConfig()
	want := runPooled(cfg, 0) // the pool holds nothing of this geometry yet
	if !want.stats.Converged || len(want.commits) < 40 {
		t.Fatalf("reference run too small to test reuse: %+v", want.stats)
	}
	slow := cfg
	slow.L1Lat, slow.L2Lat, slow.MemLat = 3, 29, 450
	for i := 0; i < 3; i++ {
		if st := runPooled(slow, 0).stats; st.Cycles == want.stats.Cycles {
			t.Fatalf("latencies had no effect on the run (cycles %d)", st.Cycles)
		}
		if got := runPooled(cfg, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: run after a different-latency run differs from fresh:\n got %+v\nwant %+v",
				i, got.stats, want.stats)
		}
		if st := runPooled(cfg, 20).stats; !st.Cancelled {
			t.Fatalf("round %d: run not cancelled at commit 20: %+v", i, st)
		}
		if got := runPooled(cfg, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: run after a cancelled run differs from fresh:\n got %+v\nwant %+v",
				i, got.stats, want.stats)
		}
	}
}

// staleSubmitEngine starts a two-core engine whose core 0 has completed
// one chunk, writing 1 to 0x1000, and then had it squashed while its
// commit request was still on the way to the arbiter, as a conflicting
// commit by core 1 would. It returns the engine, core 0 and the chunk,
// which the squash's restart reused: the pending request's chunk pointer
// is live again.
func staleSubmitEngine(t *testing.T) (*Engine, *core, *chunk.Chunk) {
	t.Helper()
	e := &Engine{Cfg: testConfig(2), Mem: mem.New(),
		Progs: []*isa.Program{storeStream(0x1000, 100), storeStream(0x9000, 100)}}
	e.begin()
	t.Cleanup(func() { sim.ReleaseMemSys(e.ms) })
	co := e.cores[0]
	if !e.startChunk(co) {
		t.Fatal("core 0 did not start a chunk")
	}
	c := co.cur
	c.Write(0x1000, 1)
	e.completeChunk(co, chunk.SizeLimit)
	if e.events.Len() != 1 || e.events[0].kind != evSubmit {
		t.Fatalf("want one pending submit event, have %d events", e.events.Len())
	}
	e.squashFrom(co, 0, 1)
	if co.cur != c || c.Completed {
		t.Fatal("the squash's restart did not reuse the squashed chunk")
	}
	return e, co, c
}

// popEvents runs e's pending global events alone, no core steps.
func popEvents(e *Engine) {
	for _, d := range e.cores {
		d.wakeOK = false
	}
	for i := 0; i < 100 && e.step(); i++ {
	}
}

// TestStaleSubmitAfterChunkReuse: a request whose chunk was squashed
// and reused must be recognised as stale and dropped. While the
// restarted chunk runs, granting the request would commit it
// unfinished. Once the restarted chunk completes too, its new request
// overwrites the one the stale event points at (a chunk embeds its
// request), and only the new event may deliver it: the chunk commits
// once, with the restarted life's write.
func TestStaleSubmitAfterChunkReuse(t *testing.T) {
	t.Run("running", func(t *testing.T) {
		e, _, _ := staleSubmitEngine(t)
		popEvents(e)
		if n, q := e.arb.GlobalCommits(), e.arb.Pending(); n != 0 || q != 0 {
			t.Fatalf("the squashed chunk's request reached the arbiter: %d commits, %d queued", n, q)
		}
	})
	t.Run("completed", func(t *testing.T) {
		e, co, c := staleSubmitEngine(t)
		c.Write(0x1000, 2)
		e.completeChunk(co, chunk.SizeLimit)
		if e.events.Len() != 2 || e.events[0].req != e.events[1].req {
			t.Fatalf("want the stale and the new submit event on one request, have %d events", e.events.Len())
		}
		popEvents(e)
		if n, q := e.arb.GlobalCommits(), e.arb.Pending(); n != 1 || q != 0 {
			t.Fatalf("%d commits, %d queued; want the restarted chunk committed once", n, q)
		}
		if v := e.Mem.Load(0x1000); v != 2 {
			t.Fatalf("memory holds %d at 0x1000, want the restarted life's 2", v)
		}
	})
}

// emptySpareCores drops every core list earlier runs in this process
// left, so the next run starts from new cores.
func emptySpareCores() {
	for ok := true; ok; _, ok = spareCores.Get() {
	}
}

// TestChunkObjectsRecycled bounds fresh chunk constructions: a core
// never holds more than SimulChunks chunks at once, and retired chunks
// are reused, so a run committing hundreds of chunks, squashes included,
// builds no more than that many per core. Chunks outlive the run: a
// second run right after it starts from the first run's chunks and
// builds none, with identical results.
func TestChunkObjectsRecycled(t *testing.T) {
	emptySpareCores()
	run := func() (*Engine, Stats) {
		e := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
		e.Cfg.ChunkSize = 50
		return e, runEngine(t, e)
	}
	e, st := run()
	if st.Chunks < 200 || st.Squashes == 0 {
		t.Fatalf("run too small to test recycling: %d chunks, %d squashes", st.Chunks, st.Squashes)
	}
	for p, n := range chunksBuilt(e) {
		if n == 0 || n > e.Cfg.SimulChunks {
			t.Errorf("core %d built %d chunk objects for %d chunks; want 1 to %d", p, n, st.PerProc[p].Chunks, e.Cfg.SimulChunks)
		}
	}
	warm, again := run()
	for p, n := range chunksBuilt(warm) {
		if n != 0 {
			t.Errorf("core %d built %d chunk objects on a warm core", p, n)
		}
	}
	if !reflect.DeepEqual(again, st) {
		t.Errorf("run on recycled cores differs:\n got %+v\nwant %+v", again, st)
	}
}

// The spare core list keeps only the last run's cores: a run on fewer
// processors than the one before drops the cores it has no processor
// for, with their chunk tables, rather than carrying them on.
func TestSpareCoresKeepOnlyLastRun(t *testing.T) {
	emptySpareCores()
	big := &Engine{Cfg: testConfig(8), Progs: append(reuseProgs(), reuseProgs()...)}
	runEngine(t, big)
	small := &Engine{Cfg: testConfig(2), Progs: reuseProgs()[:2]}
	runEngine(t, small)
	spare, ok := spareCores.Get()
	if !ok || len(spare) != 2 {
		t.Fatalf("spare list holds %d cores after a 2-processor run, want 2", len(spare))
	}
	if _, more := spareCores.Get(); more {
		t.Fatal("the 8-processor run's core list is still on the free list")
	}
}

// A core whose chunk buffers outgrew maxKeptCore — here one chunk of
// 16 384 stores to distinct lines, in an L1 large enough that it never
// overflows — is not kept: the spare list holds no core over the bound,
// and a small run after it reads the same as one on new cores.
func TestSpareCoresBounded(t *testing.T) {
	small := func() Stats {
		e := &Engine{Cfg: testConfig(2), Progs: reuseProgs()[:2]}
		e.Cfg.ChunkSize = 50
		return runEngine(t, e)
	}
	emptySpareCores()
	want := small()

	big := &Engine{Cfg: testConfig(2), Progs: []*isa.Program{
		storeStream(0x100000, 16384), storeStream(0x400000, 16384)}}
	big.Cfg.ChunkSize = 1 << 17
	big.Cfg.L1Bytes = 2 << 20
	big.Cfg.L1Ways = 8
	if st := runEngine(t, big); st.Chunks > 4 {
		t.Fatalf("setup: the stores took %d chunks, want one per core", st.Chunks)
	}
	spare, ok := spareCores.Get()
	if !ok || len(spare) != 2 {
		t.Fatalf("spare list holds %d cores after a 2-processor run, want 2", len(spare))
	}
	for p, co := range spare {
		if co != nil {
			t.Errorf("core %d kept with %d bytes of chunk buffers, bound %d", p, co.chunkBytes(), maxKeptCore)
		}
	}
	spareCores.Put(spare)

	if got := small(); !reflect.DeepEqual(got, want) {
		t.Errorf("run after a dropped core differs:\n got %+v\nwant %+v", got, want)
	}
	spare, _ = spareCores.Get()
	for p, co := range spare {
		if co == nil || co.chunkBytes() > maxKeptCore {
			t.Errorf("core %d of the small run not kept", p)
		}
	}
}

// An engine's arbiter stays readable after Run (Table 6 reads it), but
// the requests left queued when a run stops early (here, waiting for
// the round-robin token) are embedded in chunk objects the next run
// reuses. Run drops them: reading the arbiter's statistics while
// another run goes on must not touch that run's chunks (the race
// detector checks), and must read the same as when no run follows.
func TestArbiterAfterRunSharesNoRequests(t *testing.T) {
	stopped := func() (*Engine, Stats) {
		e := &Engine{Cfg: testConfig(4), Progs: reuseProgs(), Mem: mem.New(),
			Policy: arbiter.NewRoundRobin(4), PicoLog: true}
		e.Cfg.ChunkSize = 50
		e.Cfg.MaxInsts = 1500
		return e, e.Run()
	}
	want, st := stopped()
	if st.Converged || st.Chunks == 0 {
		t.Fatalf("want a run stopped by its budget after some commits: %+v", st)
	}
	if n := want.Arbiter().Pending(); n != 0 {
		t.Fatalf("arbiter still queues %d requests after Run", n)
	}
	wantStats := want.Arbiter().StatsAt(st.Cycles)

	e, st := stopped()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			stopped()
		}
	}()
	got := e.Arbiter().StatsAt(st.Cycles)
	<-done
	if got != wantStats {
		t.Fatalf("arbiter statistics %+v, want %+v", got, wantStats)
	}
}

// warmRunBudget bounds what a run allocates once the free lists hold
// what it needs: the engine, its arbiter and stats, about 36 KB. Chunk
// tables, cores, cache hierarchies and memories all come back from
// earlier runs; regrowing the chunk tables alone took about 240 KB on
// this workload. A recycled memory's word table whose fresh hash key
// meets a clustered run of addresses switches to mixed hashing within
// its own slot array, so that costs nothing either.
const warmRunBudget = 64 << 10

// A warm second run of the same workload allocates under warmRunBudget.
// The first run starts from new cores: which chunk object takes which
// role follows the free lists' order, so cores other runs left behind
// could still grow tables in the second run.
func TestWarmRunAllocBudget(t *testing.T) {
	emptySpareCores()
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := &Engine{Cfg: testConfig(4), Progs: reuseProgs(), Mem: mem.Get()}
		runEngine(t, e)
		mem.Put(e.Mem)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := run()
	warm := run()
	t.Logf("cold run %d bytes, warm run %d bytes", cold, warm)
	if warm >= warmRunBudget {
		t.Fatalf("warm run allocated %d bytes (cold: %d), budget %d", warm, cold, warmRunBudget)
	}
}

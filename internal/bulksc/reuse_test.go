package bulksc

import (
	"reflect"
	"testing"

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

// TestStaleSubmitAfterChunkReuse: a chunk squashed while its commit
// request is still on the way to the arbiter is reused by its core as
// the squash's restart, so the request's chunk pointer is live again.
// The request must still be recognised as stale and dropped: the
// restarted chunk has not completed, and granting it would commit it.
func TestStaleSubmitAfterChunkReuse(t *testing.T) {
	e := &Engine{Cfg: testConfig(2), Mem: mem.New(),
		Progs: []*isa.Program{storeStream(0x1000, 100), storeStream(0x9000, 100)}}
	e.begin()
	defer sim.ReleaseMemSys(e.ms)
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
	e.squashFrom(co, 0, 1) // as a conflicting commit by core 1 would
	if co.cur != c || c.Completed {
		t.Fatal("the squash's restart did not reuse the squashed chunk")
	}
	// Pop the pending events alone.
	for _, d := range e.cores {
		d.wakeOK = false
	}
	for i := 0; i < 100 && e.step(); i++ {
	}
	if n, q := e.arb.GlobalCommits(), e.arb.Pending(); n != 0 || q != 0 {
		t.Fatalf("the squashed chunk's request reached the arbiter: %d commits, %d queued", n, q)
	}
}

// TestChunkObjectsRecycled bounds fresh chunk constructions: a core
// never holds more than SimulChunks chunks at once, and retired chunks
// are reused, so a run committing hundreds of chunks, squashes included,
// builds no more than that many per core.
func TestChunkObjectsRecycled(t *testing.T) {
	e := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
	e.Cfg.ChunkSize = 50
	st := runEngine(t, e)
	if st.Chunks < 200 || st.Squashes == 0 {
		t.Fatalf("run too small to test recycling: %d chunks, %d squashes", st.Chunks, st.Squashes)
	}
	for p, n := range chunksBuilt(e) {
		if n > e.Cfg.SimulChunks {
			t.Errorf("core %d built %d chunk objects for %d chunks; at most %d are live at once",
				p, n, st.PerProc[p].Chunks, e.Cfg.SimulChunks)
		}
	}
}

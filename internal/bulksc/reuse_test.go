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
// per-proc stats all nonzero, so accumulation bugs have state to leak.
func reuseProgs() []*isa.Program {
	return []*isa.Program{
		lockIncProgram(0x1000, 0x2000, 300),
		lockIncProgram(0x1000, 0x2000, 300),
		atomicIncProgram(0x3000, 1200),
		storeStream(0x8000, 1200),
	}
}

// A reused Engine must behave exactly like a fresh one: Run resets all
// run state, so a rerun (with fresh memory — the run mutates it) yields
// identical stats.
func TestEngineReuseMatchesFresh(t *testing.T) {
	fresh := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
	want := runEngine(t, fresh)

	reused := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
	first := runEngine(t, reused)
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("first run differs from fresh engine:\n got %+v\nwant %+v", first, want)
	}
	for run := 2; run <= 3; run++ {
		reused.Mem = mem.New()
		again := runEngine(t, reused)
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("run %d on reused engine differs:\n got %+v\nwant %+v", run, again, want)
		}
	}
}

// A run cut short by the instruction budget stops with core wake-ups and
// global events still pending. A full rerun on the same engine must
// match a fresh engine, so none of that scheduler state may leak.
func TestEngineReuseAfterBudgetStop(t *testing.T) {
	want := runEngine(t, &Engine{Cfg: testConfig(4), Progs: reuseProgs()})

	e := &Engine{Cfg: testConfig(4), Progs: reuseProgs(), Mem: mem.New()}
	e.Cfg.MaxInsts = 10_000
	if st := e.Run(); st.Converged || st.Chunks == 0 {
		t.Fatalf("budget run should stop mid-flight: %+v", st)
	}
	e.Cfg.MaxInsts = testConfig(4).MaxInsts
	e.Mem = mem.New()
	if got := runEngine(t, e); !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun after a budget stop differs from fresh engine:\n got %+v\nwant %+v", got, want)
	}
}

// The Stats a run returns must be a snapshot: a later run on the same
// engine must not mutate the caller's copy through the TruncBy map or
// PerProc slice.
func TestEngineReuseStatsNotAliased(t *testing.T) {
	e := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
	st1 := runEngine(t, e)
	if len(st1.TruncBy) == 0 || len(st1.PerProc) == 0 {
		t.Fatalf("workload exercises no truncation/per-proc stats: %+v", st1)
	}
	truncBy := make(map[chunk.TruncReason]uint64, len(st1.TruncBy))
	for k, v := range st1.TruncBy {
		truncBy[k] = v
	}
	perProc := append([]ProcStats(nil), st1.PerProc...)

	e.Mem = mem.New()
	runEngine(t, e)

	if !reflect.DeepEqual(st1.TruncBy, truncBy) {
		t.Errorf("second run mutated first run's TruncBy:\n got %v\nwant %v", st1.TruncBy, truncBy)
	}
	if !reflect.DeepEqual(st1.PerProc, perProc) {
		t.Errorf("second run mutated first run's PerProc:\n got %v\nwant %v", st1.PerProc, perProc)
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

// A cancelled run must leave the engine as reusable as any other early
// exit: clearing Cancel and refreshing Mem, the next Run behaves exactly
// like a run on a fresh engine. This is what lets the serving layer pool
// engines across requests whose contexts get cancelled.
func TestEngineReuseAfterCancel(t *testing.T) {
	want := runEngine(t, &Engine{Cfg: testConfig(4), Progs: reuseProgs()})

	cancelled := make(chan struct{})
	close(cancelled)
	e := &Engine{Cfg: testConfig(4), Progs: reuseProgs()}
	for cycle := 1; cycle <= 2; cycle++ {
		e.Mem = mem.New()
		e.Cancel = cancelled
		st := e.Run()
		if !st.Cancelled {
			t.Fatalf("cycle %d: pre-cancelled run not reported: %+v", cycle, st)
		}
		if st.Converged {
			t.Fatalf("cycle %d: cancelled run claims convergence", cycle)
		}

		e.Mem = mem.New()
		e.Cancel = nil
		again := runEngine(t, e)
		if again.Cancelled {
			t.Fatalf("cycle %d: rerun kept stale Cancelled flag", cycle)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("cycle %d: rerun after cancel differs from fresh engine:\n got %+v\nwant %+v",
				cycle, again, want)
		}
	}
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

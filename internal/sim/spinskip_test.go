package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/baseline"
	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/metrics"
	"delorean/internal/sim"
	"delorean/internal/trace"
	"delorean/internal/workload"
)

// The tests here check that skipping steady spin-wait iterations, in both
// machines, is exact: every run is made twice, once stepping every
// iteration (SetStepSpins(true)) and once skipping, and the two must agree
// in everything the run produces. They flip a process-wide switch, so
// none of them runs in parallel.

// stepThenSkip runs f stepping every spin iteration, then skipping, and
// returns both results and how many iterations the second run skipped.
func stepThenSkip[R any](f func() R) (stepped, skipped R, n uint64) {
	sim.SetStepSpins(true)
	stepped = f()
	sim.SetStepSpins(false)
	sim.CountSpinSkips(true)
	defer sim.CountSpinSkips(false)
	before := sim.SpinSkips()
	skipped = f()
	return stepped, skipped, sim.SpinSkips() - before
}

var quick = workload.Params{NProcs: 4, Scale: 8_000, Seed: 1}

func quickConfig(nprocs int) sim.Config {
	cfg := sim.Default8()
	cfg.NProcs = nprocs
	cfg.MaxInsts = 2_000_000_000
	return cfg
}

// classicRun is everything a classic-machine run with every prior-work
// recorder attached produces.
type classicRun struct {
	Stats   sim.Stats
	Logs    []string
	MemHash uint64
}

func runClassic(cfg sim.Config, model sim.Model, w *workload.Workload) classicRun {
	n := cfg.NProcs
	recs := []baseline.Recorder{baseline.NewFDR(n), baseline.NewRTR(n), baseline.NewStrata(n, false),
		baseline.NewStrata(n, true), baseline.NewAdvancedRTR(n, 0)}
	memory := w.InitMem()
	out := classicRun{Stats: baseline.RunModel(cfg, model, w.Progs, memory, w.Devs, recs...), MemHash: memory.Hash()}
	for _, r := range recs {
		out.Logs = append(out.Logs, fmt.Sprintf("%s %d %d %d %x", r.Name(), r.Entries(), r.RawBits(), r.CompressedBits(), r.Log()))
	}
	return out
}

func TestSpinSkipClassicMatchesStepping(t *testing.T) {
	var skipped uint64
	for _, name := range workload.Names() {
		for _, model := range []sim.Model{sim.SC, sim.RC, sim.TSO} {
			w := workload.Get(name, quick)
			a, b, n := stepThenSkip(func() classicRun { return runClassic(quickConfig(quick.NProcs), model, w) })
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: skipping spins changed the run\n stepped %+v\n skipped %+v", name, model, a.Stats, b.Stats)
			}
			skipped += n
		}
	}
	if skipped == 0 {
		t.Fatal("no spin iteration was skipped")
	}
}

// recordingOf is everything a recording run produces: the serialized
// container (logs and checkpoints), the run's stats, its fingerprint and
// its final memory.
type recordingOf struct {
	Bytes       []byte
	Stats       bulksc.Stats
	Fingerprint uint64
	MemHash     uint64
	Checkpoints int
}

func record(t *testing.T, cfg sim.Config, mode core.Mode, w *workload.Workload, opts core.RecordOptions) (recordingOf, *core.Recording) {
	t.Helper()
	rec, err := core.Record(cfg, mode, w.Progs, w.Image, w.Devs, opts)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, mode, err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return recordingOf{buf.Bytes(), rec.Stats, rec.Fingerprint, rec.FinalMemHash, rec.CheckpointCount()}, rec
}

func TestSpinSkipRecordingMatchesStepping(t *testing.T) {
	var skipped uint64
	for _, name := range workload.Names() {
		for _, mode := range []core.Mode{core.OrderOnly, core.OrderSize, core.PicoLog} {
			w := workload.Get(name, quick)
			a, b, n := stepThenSkip(func() recordingOf {
				r, _ := record(t, quickConfig(quick.NProcs), mode, w, core.RecordOptions{TruncSeed: 7})
				return r
			})
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: skipping spins changed the recording\n stepped %+v\n skipped %+v", name, mode, a.Stats, b.Stats)
			}
			skipped += n
		}
	}
	if skipped == 0 {
		t.Fatal("no spin iteration was skipped")
	}
}

// commitLog collects an engine's whole observer stream.
type commitLog struct {
	Events []string
}

func (c *commitLog) OnCommit(e bulksc.CommitEvent) {
	r, w := *e.RSig, *e.WSig // valid only during the callback
	e.RSig, e.WSig = nil, nil
	c.Events = append(c.Events, fmt.Sprintf("commit %+v r=%v w=%v", e, r, w))
}

func (c *commitLog) OnSquash(proc int, seq uint64, insts int, by int) {
	c.Events = append(c.Events, fmt.Sprint("squash", proc, seq, insts, by))
}
func (c *commitLog) OnInterrupt(proc int, seq uint64, typ, data int64, urgent bool) {
	c.Events = append(c.Events, fmt.Sprint("intr", proc, seq, typ, data, urgent))
}
func (c *commitLog) OnIORead(proc int, port int64, v uint64) {
	c.Events = append(c.Events, fmt.Sprint("io", proc, port, v))
}
func (c *commitLog) OnDMACommit(slot uint64, addr uint32, data []uint64) {
	c.Events = append(c.Events, fmt.Sprint("dma", slot, addr, data))
}

// engineRun is everything a bare engine run produces, its trace and
// end-of-run counters included.
type engineRun struct {
	Stats    bulksc.Stats
	Stream   commitLog
	MemHash  uint64
	Trace    []byte
	Counters []metrics.Counter
}

// runEngine runs e with an observer and a trace sink attached.
func runEngine(e *bulksc.Engine) engineRun {
	var out engineRun
	e.Obs = &out.Stream
	e.Trace = trace.NewSink(e.Cfg.NProcs)
	out.Stats = e.Run()
	out.MemHash = e.Mem.Hash()
	var buf bytes.Buffer
	if err := e.Trace.WriteTraceEvent(&buf); err != nil {
		panic(err)
	}
	out.Trace = buf.Bytes()
	out.Counters = e.Trace.Counters.Snapshot()
	return out
}

// TestSpinSkipFig12PointMatchesStepping runs a Figure 12 point — PicoLog's
// round-robin order at 16 processors — on the bare engine.
func TestSpinSkipFig12PointMatchesStepping(t *testing.T) {
	p := quick
	p.NProcs = 16
	var skipped uint64
	for _, name := range []string{"barnes", "fft", "ocean", "raytrace", "water-sp"} {
		w := workload.Get(name, p)
		a, b, n := stepThenSkip(func() engineRun {
			cfg := quickConfig(16)
			cfg.ChunkSize = 1000
			cfg.SimulChunks = 4
			return runEngine(&bulksc.Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs,
				PicoLog: true, Policy: arbiter.NewRoundRobin(16)})
		})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: skipping spins changed the run\n stepped %+v\n skipped %+v", name, a.Stats, b.Stats)
		}
		skipped += n
	}
	if skipped == 0 {
		t.Fatal("no spin iteration was skipped")
	}
}

// TestSpinSkipReplayMatchesStepping records with checkpoints and replays
// sequentially, from a checkpoint, segmented, and with commit stalls.
func TestSpinSkipReplayMatchesStepping(t *testing.T) {
	var skipped uint64
	for _, name := range []string{"ocean", "raytrace", "sjbb2k", "sweb2005", "water-ns"} {
		for _, mode := range []core.Mode{core.OrderOnly, core.PicoLog} {
			w := workload.Get(name, quick)
			cfg := quickConfig(quick.NProcs)
			opts := core.RecordOptions{CheckpointEvery: 5}
			a, b, n := stepThenSkip(func() recordingOf { r, _ := record(t, cfg, mode, w, opts); return r })
			skipped += n
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%v: skipping spins changed the checkpointed recording", name, mode)
			}
			_, rec := record(t, cfg, mode, w, opts)
			if rec.CheckpointCount() < 2 {
				t.Fatalf("%s/%v: %d checkpoints", name, mode, rec.CheckpointCount())
			}
			rcfg := core.ReplayConfig(cfg)
			stalls := &bulksc.Perturb{Seed: 3, StallProb: 0.3, StallMin: 10, StallMax: 300}
			replays := map[string]func() (core.ReplayResult, error){
				"sequential": func() (core.ReplayResult, error) { return core.Replay(rec, rcfg, w.Progs, core.ReplayOptions{}) },
				"segmented": func() (core.ReplayResult, error) {
					return core.Replay(rec, rcfg, w.Progs, core.ReplayOptions{ReplayParallel: 2})
				},
				"stalled": func() (core.ReplayResult, error) {
					return core.Replay(rec, rcfg, w.Progs, core.ReplayOptions{Perturb: stalls})
				},
				"from checkpoint": func() (core.ReplayResult, error) {
					return core.ReplayFromCheckpoint(rec, rec.CheckpointCount()/2, rcfg, w.Progs, core.ReplayOptions{})
				},
			}
			for kind, replay := range replays {
				type result struct {
					R   core.ReplayResult
					Err string
				}
				ra, rb, n := stepThenSkip(func() result {
					r, err := replay()
					return result{r, fmt.Sprint(err)}
				})
				skipped += n
				if !reflect.DeepEqual(ra, rb) {
					t.Errorf("%s/%v %s replay: skipping spins changed it\n stepped %+v\n skipped %+v", name, mode, kind, ra, rb)
				}
				if ra.Err != "<nil>" {
					t.Errorf("%s/%v %s replay: %s", name, mode, kind, ra.Err)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no spin iteration was skipped")
	}
}

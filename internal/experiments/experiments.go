// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on this repository's simulator and workloads.
// Each harness returns typed rows plus a rendered text table; DESIGN.md
// carries the experiment index and EXPERIMENTS.md the paper-vs-measured
// record.
//
// Absolute numbers differ from the paper's (different substrate, scaled
// workloads); the harnesses exist to reproduce the paper's *shapes*: who
// wins, by roughly what factor, and where the crossovers are.
package experiments

import (
	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/runner"
	"delorean/internal/sim"
	"delorean/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	Procs int
	// Scale is the approximate per-processor dynamic instruction count
	// of each workload run.
	Scale int
	Seed  uint64
	// ReplayRuns is the number of perturbed replays averaged for replay
	// speed (the paper uses 5).
	ReplayRuns int
	// Workloads restricts the workload set (nil: all 13; Figure 12 uses
	// the SPLASH-2 subset regardless).
	Workloads []string
	// Parallel bounds the worker pool the harness fans independent
	// simulation runs across: 0 sizes it to GOMAXPROCS, 1 forces
	// sequential execution. Each simulation is single-threaded and
	// seed-deterministic, and results are gathered by index, so the
	// rendered tables are byte-identical at any worker count.
	Parallel int
	// SimParallel is read by nothing: each simulation runs on one
	// goroutine.
	//
	// Deprecated: the simulator has a single scheduler, so there is no
	// intra-run worker count to set.
	SimParallel int
	// Cache memoizes baseline runs shared between figures. Nil uses the
	// process-wide cache (figures run in one process share RC references
	// and recordings); tests point it at a fresh Cache to force
	// recomputation.
	Cache *Cache
}

// Default returns the paper-shaped configuration at a laptop-friendly
// scale.
func Default() Config {
	return Config{Procs: 8, Scale: 60_000, Seed: 1, ReplayRuns: 5}
}

// Quick returns a fast configuration for tests and smoke runs.
func Quick() Config {
	return Config{Procs: 4, Scale: 8_000, Seed: 1, ReplayRuns: 2}
}

func (c Config) workloads() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.Names()
}

func (c Config) params() workload.Params {
	return workload.Params{NProcs: c.Procs, Scale: c.Scale, Seed: c.Seed}
}

func (c Config) machine() sim.Config {
	m := sim.Default8()
	m.NProcs = c.Procs
	m.MaxInsts = 2_000_000_000
	return m
}

// groupNames returns the figure x-axis groups: the SPLASH-2 geometric
// mean plus each commercial workload individually, as in the paper.
func groupNames() []string { return []string{"SP2-G.M.", "sjbb2k", "sweb2005"} }

// splashIn reports whether name is one of the SPLASH-2 kernels.
func splashIn(name string) bool {
	for _, n := range workload.SplashNames() {
		if n == name {
			return true
		}
	}
	return false
}

// runKey identifies one deterministic simulation run. Two call sites with
// equal keys are guaranteed to produce identical results, so the run
// executes once per Cache and every consumer shares it.
//
// Keys are canonicalized before lookup so that option deltas with no
// effect on the run do not split the cache:
//
//   - TruncSeed only seeds Order&Size's random truncation model; it is
//     zeroed for every other mode.
//   - The PI-log stratifier is a pure observer (it never feeds back into
//     the engine and its log is counted separately), so a plain OrderOnly
//     recording and a stratified one at StratifyMax=1 are the same run —
//     the canonical key records with StratifyMax=1 and plain consumers
//     simply ignore the extra Stratified log. This is what lets Figure
//     11's plain and stratified replay inputs share one recording.
//   - SimulChunks=0 means the machine default; it is resolved before
//     keying so explicit-default sweeps (Figure 12) hit the same entry.
type runKey struct {
	kind      string // "classic" | "chunked" | "record"
	workload  string
	procs     int
	scale     int
	seed      uint64
	model     sim.Model // classic runs
	mode      core.Mode // recordings
	chunkSize int
	stratify  int
	truncSeed uint64
	exact     bool
	ckptEvery uint64
	picolog   bool
	simul     int
	// Replay runs: which policy variant and which perturbation index.
	stratReplay bool
	run         int
}

// recordResult memoizes a recording together with its (deterministic)
// error, so failed runs are not retried per consumer.
type recordResult struct {
	rec *core.Recording
	err error
}

// replayResult memoizes one verified perturbed replay's cycle count.
type replayResult struct {
	cycles float64
	err    error
}

// Cache is the harness's single-flight memo store: each distinct
// RC/SC/BulkSC baseline run, recording, and verified perturbed replay
// executes exactly once per Cache no matter how many figures consume it.
// The zero value is ready to use; a nil Config.Cache uses one
// process-wide instance.
type Cache struct {
	classic runner.Memo[runKey, sim.Stats]
	chunked runner.Memo[runKey, bulksc.Stats]
	records runner.Memo[runKey, recordResult]
	replays runner.Memo[runKey, replayResult]
}

// Runs reports how many distinct simulations the cache has executed.
func (c *Cache) Runs() int {
	return c.classic.Len() + c.chunked.Len() + c.records.Len() + c.replays.Len()
}

var defaultCache = &Cache{}

func (c Config) cache() *Cache {
	if c.Cache != nil {
		return c.Cache
	}
	return defaultCache
}

// recordWorkload records one workload in the given mode and returns the
// recording (memoized: see runKey for the sharing rules).
func (c Config) recordWorkload(name string, mode core.Mode, chunkSize int, opts core.RecordOptions) (*core.Recording, error) {
	key := runKey{
		kind: "record", workload: name, procs: c.Procs, scale: c.Scale, seed: c.Seed,
		mode: mode, chunkSize: chunkSize,
		stratify: opts.StratifyMax, truncSeed: opts.TruncSeed,
		exact: opts.ExactConflicts, ckptEvery: opts.CheckpointEvery,
	}
	if mode != core.OrderSize {
		key.truncSeed = 0
	}
	if mode == core.OrderOnly && key.stratify == 0 {
		key.stratify = 1
	}
	res := c.cache().records.Do(key, func() recordResult {
		canon := opts
		canon.TruncSeed = key.truncSeed
		canon.StratifyMax = key.stratify
		w := workload.Get(name, c.params())
		cfg := c.machine()
		cfg.ChunkSize = chunkSize
		rec, err := core.Record(cfg, mode, w.Progs, w.InitMem(), w.Devs, canon)
		return recordResult{rec: rec, err: err}
	})
	return res.rec, res.err
}

// runClassic executes one workload on the classic machine (memoized).
func (c Config) runClassic(name string, model sim.Model) sim.Stats {
	key := runKey{kind: "classic", workload: name, procs: c.Procs, scale: c.Scale, seed: c.Seed, model: model}
	return c.cache().classic.Do(key, func() sim.Stats {
		w := workload.Get(name, c.params())
		m := sim.NewMachine(c.machine(), model, w.Progs, w.InitMem(), w.Devs)
		return m.Run()
	})
}

// runChunked executes one workload on the plain chunked machine, no
// recording (memoized).
func (c Config) runChunked(name string, chunkSize int, picolog bool, simul int) bulksc.Stats {
	if simul <= 0 {
		simul = c.machine().SimulChunks
	}
	key := runKey{
		kind: "chunked", workload: name, procs: c.Procs, scale: c.Scale, seed: c.Seed,
		chunkSize: chunkSize, picolog: picolog, simul: simul,
	}
	return c.cache().chunked.Do(key, func() bulksc.Stats {
		w := workload.Get(name, c.params())
		cfg := c.machine()
		cfg.ChunkSize = chunkSize
		cfg.SimulChunks = simul
		e := &bulksc.Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs, PicoLog: picolog}
		if picolog {
			e.Policy = newRR(cfg.NProcs)
		}
		return e.Run()
	})
}

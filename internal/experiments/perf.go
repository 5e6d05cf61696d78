package experiments

import (
	"fmt"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/metrics"
	"delorean/internal/runner"
	"delorean/internal/sim"
	"delorean/internal/workload"
)

func newRR(n int) arbiter.Policy { return arbiter.NewRoundRobin(n) }

// Fig10Row is one workload's bar group in Figure 10: initial-execution
// speed of every environment, normalized to RC.
type Fig10Row struct {
	Workload string
	// Speedups vs RC (RC = 1.0).
	BulkSC, OrderSize, OrderOnly, StratOrderOnly, PicoLog, SC float64
}

// Fig10 reproduces Figure 10: performance during initial execution
// normalized to RC, per workload plus the SPLASH-2 geometric mean.
// Workloads run concurrently; rows are gathered by workload index.
func Fig10(c Config) ([]Fig10Row, error) {
	names := c.workloads()
	rows, err := runner.Map(c.Parallel, len(names), func(i int) (Fig10Row, error) {
		return c.fig10One(names[i])
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, geoMeanFig10("SP2-G.M.", rows))
	return rows, nil
}

func (c Config) fig10One(name string) (Fig10Row, error) {
	rc := c.runClassic(name, sim.RC)
	if !rc.Converged {
		return Fig10Row{}, fmt.Errorf("%s: RC did not converge", name)
	}
	scSt := c.runClassic(name, sim.SC)
	speed := func(cycles uint64) float64 {
		if cycles == 0 {
			return 0
		}
		return float64(rc.Cycles) / float64(cycles)
	}

	plain := c.runChunked(name, 2000, false, 0)
	row := Fig10Row{Workload: name, BulkSC: speed(plain.Cycles), SC: speed(scSt.Cycles)}

	recOS, err := c.recordWorkload(name, core.OrderSize, 2000, core.RecordOptions{TruncSeed: c.Seed})
	if err != nil {
		return row, err
	}
	row.OrderSize = speed(recOS.Stats.Cycles)

	recOO, err := c.recordWorkload(name, core.OrderOnly, 2000, core.RecordOptions{})
	if err != nil {
		return row, err
	}
	row.OrderOnly = speed(recOO.Stats.Cycles)

	recStrat, err := c.recordWorkload(name, core.OrderOnly, 2000, core.RecordOptions{StratifyMax: 1})
	if err != nil {
		return row, err
	}
	row.StratOrderOnly = speed(recStrat.Stats.Cycles)

	recPL, err := c.recordWorkload(name, core.PicoLog, 1000, core.RecordOptions{})
	if err != nil {
		return row, err
	}
	row.PicoLog = speed(recPL.Stats.Cycles)
	return row, nil
}

func geoMeanFig10(label string, rows []Fig10Row) Fig10Row {
	pick := func(f func(Fig10Row) float64) []float64 {
		var xs []float64
		for _, r := range rows {
			if splashIn(r.Workload) {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	return Fig10Row{
		Workload:       label,
		BulkSC:         metrics.GeoMean(pick(func(r Fig10Row) float64 { return r.BulkSC })),
		OrderSize:      metrics.GeoMean(pick(func(r Fig10Row) float64 { return r.OrderSize })),
		OrderOnly:      metrics.GeoMean(pick(func(r Fig10Row) float64 { return r.OrderOnly })),
		StratOrderOnly: metrics.GeoMean(pick(func(r Fig10Row) float64 { return r.StratOrderOnly })),
		PicoLog:        metrics.GeoMean(pick(func(r Fig10Row) float64 { return r.PicoLog })),
		SC:             metrics.GeoMean(pick(func(r Fig10Row) float64 { return r.SC })),
	}
}

// RenderFig10 renders the Figure 10 table.
func RenderFig10(rows []Fig10Row) string {
	t := &metrics.Table{
		Title: "Figure 10: initial-execution speedup normalized to RC (RC = 1.00)",
		Cols:  []string{"workload", "BulkSC", "Order&Size", "OrderOnly", "StratOO", "PicoLog", "SC"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, metrics.F(r.BulkSC), metrics.F(r.OrderSize), metrics.F(r.OrderOnly),
			metrics.F(r.StratOrderOnly), metrics.F(r.PicoLog), metrics.F(r.SC))
	}
	return t.Render()
}

// Fig11Row is one workload's execution-vs-replay pair for one mode.
type Fig11Row struct {
	Workload string
	Mode     string // OrderOnly | StratifiedOrderOnly | PicoLog
	// Speed vs RC.
	Execution float64
	Replay    float64
}

// fig11Specs are Figure 11's three recording environments. OrderOnly and
// StratifiedOrderOnly differ only in replay options; the memo cache's
// canonical key makes them share one recording (the stratifier is a pure
// observer, so a StratifyMax=1 recording serves both).
type fig11Spec struct {
	label string
	mode  core.Mode
	chunk int
	opts  core.RecordOptions
	rOpts core.ReplayOptions
}

func fig11Specs() []fig11Spec {
	return []fig11Spec{
		{label: "OrderOnly", mode: core.OrderOnly, chunk: 2000},
		{label: "StratifiedOrderOnly", mode: core.OrderOnly, chunk: 2000,
			opts:  core.RecordOptions{StratifyMax: 1},
			rOpts: core.ReplayOptions{UseStratified: true}},
		{label: "PicoLog", mode: core.PicoLog, chunk: 1000},
	}
}

// Fig11 reproduces Figure 11: execution and replay performance of
// OrderOnly, Stratified OrderOnly and PicoLog, normalized to RC. Replay
// runs under the paper's §6.2.1 protocol: parallel commit disabled,
// 50-cycle arbitration, and ReplayRuns perturbed runs averaged.
//
// Every (workload, mode, perturbation) replay is an independent task; the
// whole cross product fans across the worker pool, with the single-flight
// cache ensuring each recording and each RC reference is produced once.
// Replaying one recording concurrently is safe: a Recording is read-only
// after Record and each Replay builds fresh machine state.
func Fig11(c Config) ([]Fig11Row, error) {
	names := c.workloads()
	specs := fig11Specs()
	runs := c.ReplayRuns
	if runs <= 0 {
		runs = 5
	}

	type task struct {
		name string
		spec fig11Spec
		run  int
	}
	var tasks []task
	for _, name := range names {
		for _, spec := range specs {
			for run := 0; run < runs; run++ {
				tasks = append(tasks, task{name: name, spec: spec, run: run})
			}
		}
	}
	cycles, err := runner.Map(c.Parallel, len(tasks), func(i int) (float64, error) {
		t := tasks[i]
		rc := c.runClassic(t.name, sim.RC)
		if !rc.Converged {
			return 0, fmt.Errorf("%s: RC did not converge", t.name)
		}
		key := runKey{
			kind: "replay", workload: t.name, procs: c.Procs, scale: c.Scale, seed: c.Seed,
			mode: t.spec.mode, chunkSize: t.spec.chunk,
			stratReplay: t.spec.rOpts.UseStratified, run: t.run,
		}
		r := c.cache().replays.Do(key, func() replayResult {
			rec, err := c.recordWorkload(t.name, t.spec.mode, t.spec.chunk, t.spec.opts)
			if err != nil {
				return replayResult{err: fmt.Errorf("%s/%s: %w", t.name, t.spec.label, err)}
			}
			w := workload.Get(t.name, c.params())
			rcfg := core.ReplayConfig(c.machine())
			rcfg.ChunkSize = t.spec.chunk
			ro := t.spec.rOpts
			ro.Perturb = bulksc.DefaultPerturb(c.Seed*1000 + uint64(t.run))
			res, err := core.Replay(rec, rcfg, w.Progs, ro)
			if err != nil {
				return replayResult{err: fmt.Errorf("%s/%s replay: %w", t.name, t.spec.label, err)}
			}
			if !res.Matches(rec) {
				return replayResult{err: fmt.Errorf("%s/%s: replay diverged", t.name, t.spec.label)}
			}
			return replayResult{cycles: float64(res.Stats.Cycles)}
		})
		return r.cycles, r.err
	})
	if err != nil {
		return nil, err
	}

	// Assemble rows in (workload, mode) order from the index-ordered
	// cycle counts; every run below is a cache hit.
	var rows []Fig11Row
	idx := 0
	for _, name := range names {
		rc := c.runClassic(name, sim.RC)
		for _, spec := range specs {
			cyc := cycles[idx : idx+runs]
			idx += runs
			rec, err := c.recordWorkload(name, spec.mode, spec.chunk, spec.opts)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, spec.label, err)
			}
			rows = append(rows, Fig11Row{
				Workload:  name,
				Mode:      spec.label,
				Execution: metrics.SafeDiv(float64(rc.Cycles), float64(rec.Stats.Cycles)),
				Replay:    metrics.SafeDiv(float64(rc.Cycles), metrics.Mean(cyc)),
			})
		}
	}
	// SPLASH-2 geometric means per mode.
	for _, mode := range []string{"OrderOnly", "StratifiedOrderOnly", "PicoLog"} {
		var ex, rp []float64
		for _, r := range rows {
			if r.Mode == mode && splashIn(r.Workload) {
				ex = append(ex, r.Execution)
				rp = append(rp, r.Replay)
			}
		}
		rows = append(rows, Fig11Row{
			Workload:  "SP2-G.M.",
			Mode:      mode,
			Execution: metrics.GeoMean(ex),
			Replay:    metrics.GeoMean(rp),
		})
	}
	return rows, nil
}

// RenderFig11 renders the Figure 11 table.
func RenderFig11(rows []Fig11Row) string {
	t := &metrics.Table{
		Title: "Figure 11: execution and replay speed normalized to RC",
		Cols:  []string{"workload", "mode", "execution", "replay"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Mode, metrics.F(r.Execution), metrics.F(r.Replay))
	}
	return t.Render()
}

// Fig12Row is one point of Figure 12: PicoLog speed vs RC at a given
// processor count, chunk size, and simultaneous-chunk limit (SPLASH-2
// geometric mean).
type Fig12Row struct {
	Procs       int
	ChunkSize   int
	SimulChunks int
	Speedup     float64
}

// Fig12 reproduces Figure 12's sensitivity sweep. The paper uses 4/8/16
// processors, 500–3000-instruction chunks and 1–16 simultaneous chunks,
// on SPLASH-2 only (its infrastructure could not run the commercial
// workloads at 16 processors; ours shares the restriction for fidelity).
func Fig12(c Config, procs []int, chunkSizes []int, simuls []int) ([]Fig12Row, error) {
	if len(procs) == 0 {
		procs = []int{4, 8, 16}
	}
	if len(chunkSizes) == 0 {
		chunkSizes = []int{500, 1000, 2000, 3000}
	}
	if len(simuls) == 0 {
		simuls = []int{1, 2, 3, 4, 8, 16}
	}
	// Flatten the whole (procs x chunk x simul x workload) sweep into
	// independent tasks; the RC reference per (procs, workload) pair is a
	// memoized run the tasks share.
	splash := workload.SplashNames()
	type task struct {
		np, cs, sm int
		name       string
	}
	var tasks []task
	for _, np := range procs {
		for _, cs := range chunkSizes {
			for _, sm := range simuls {
				for _, name := range splash {
					tasks = append(tasks, task{np: np, cs: cs, sm: sm, name: name})
				}
			}
		}
	}
	speeds, err := runner.Map(c.Parallel, len(tasks), func(i int) (float64, error) {
		t := tasks[i]
		cp := c
		cp.Procs = t.np
		rc := cp.runClassic(t.name, sim.RC)
		if !rc.Converged {
			return 0, fmt.Errorf("%s@%dp: RC did not converge", t.name, t.np)
		}
		st := cp.runChunked(t.name, t.cs, true, t.sm)
		if !st.Converged {
			return 0, fmt.Errorf("%s@%dp cs=%d sm=%d: did not converge", t.name, t.np, t.cs, t.sm)
		}
		return metrics.SafeDiv(float64(rc.Cycles), float64(st.Cycles)), nil
	})
	if err != nil {
		return nil, err
	}

	var rows []Fig12Row
	idx := 0
	for _, np := range procs {
		for _, cs := range chunkSizes {
			for _, sm := range simuls {
				rows = append(rows, Fig12Row{
					Procs: np, ChunkSize: cs, SimulChunks: sm,
					Speedup: metrics.GeoMean(speeds[idx : idx+len(splash)]),
				})
				idx += len(splash)
			}
		}
	}
	return rows, nil
}

// RenderFig12 renders the Figure 12 series.
func RenderFig12(rows []Fig12Row) string {
	t := &metrics.Table{
		Title: "Figure 12: PicoLog speedup vs RC (SPLASH-2 geometric mean)",
		Cols:  []string{"procs", "chunk", "simul-chunks", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Procs), fmt.Sprint(r.ChunkSize), fmt.Sprint(r.SimulChunks), metrics.F(r.Speedup))
	}
	return t.Render()
}

// Table6Row characterizes PicoLog on one workload (paper Table 6).
type Table6Row struct {
	Workload        string
	ReadyProcsAvg   float64
	ActualCommitAvg float64
	ProcReadyPct    float64
	WaitTokenCyc    float64
	WaitCompleteCyc float64
	TokenRoundtrip  float64
	StallPct        float64
}

// Table6 reproduces Table 6: PicoLog's commit-token behaviour per
// workload at 8 processors (or c.Procs). The runs are not memoized —
// the row needs the engine's arbiter and token internals, not just
// Stats — but they do fan across the worker pool.
func Table6(c Config) ([]Table6Row, error) {
	names := c.workloads()
	return runner.Map(c.Parallel, len(names), func(i int) (Table6Row, error) {
		name := names[i]
		w := workload.Get(name, c.params())
		cfg := c.machine()
		cfg.ChunkSize = 1000
		rr := arbiter.NewRoundRobin(cfg.NProcs)
		e := &bulksc.Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs, Policy: rr, PicoLog: true}
		st := e.Run()
		if !st.Converged {
			return Table6Row{}, fmt.Errorf("%s: PicoLog run did not converge", name)
		}
		arbStats := e.Arbiter().StatsAt(st.Cycles)
		tok := rr.Tokens()
		stallPct := 0.0
		if st.Cycles > 0 {
			stallPct = 100 * float64(st.SlotStallCycles) / float64(st.Cycles*uint64(cfg.NProcs))
		}
		return Table6Row{
			Workload:        name,
			ReadyProcsAvg:   arbStats.ReadyProcsAvg,
			ActualCommitAvg: arbStats.ActualCommitAvg,
			ProcReadyPct:    100 * tok.ProcReadyFrac,
			WaitTokenCyc:    tok.WaitTokenAvg,
			WaitCompleteCyc: tok.WaitCompleteAvg,
			TokenRoundtrip:  tok.RoundtripAvg,
			StallPct:        stallPct,
		}, nil
	})
}

// RenderTable6 renders the Table 6 characterization.
func RenderTable6(rows []Table6Row) string {
	t := &metrics.Table{
		Title: "Table 6: characterizing PicoLog",
		Cols: []string{"workload", "ready procs", "actual commit", "proc ready %",
			"wait token", "wait cplete", "token rndtrip", "stall %"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, metrics.F(r.ReadyProcsAvg), metrics.F(r.ActualCommitAvg),
			metrics.F(r.ProcReadyPct), metrics.F(r.WaitTokenCyc), metrics.F(r.WaitCompleteCyc),
			metrics.F(r.TokenRoundtrip), metrics.F(r.StallPct))
	}
	return t.Render()
}

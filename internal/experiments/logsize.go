package experiments

import (
	"fmt"

	"delorean/internal/baseline"
	"delorean/internal/core"
	"delorean/internal/metrics"
	"delorean/internal/runner"
	"delorean/internal/sim"
	"delorean/internal/workload"
)

// LogSizeRow is one bar of Figures 6, 7 or 8: a workload group at one
// chunk size, with PI and CS log sizes in bits per processor per
// kilo-instruction, raw and LZ77-compressed.
type LogSizeRow struct {
	Group     string
	ChunkSize int
	PIRaw     float64
	CSRaw     float64
	PIComp    float64
	CSComp    float64
}

// TotalRaw returns the stacked raw size.
func (r LogSizeRow) TotalRaw() float64 { return r.PIRaw + r.CSRaw }

// TotalComp returns the stacked compressed size.
func (r LogSizeRow) TotalComp() float64 { return r.PIComp + r.CSComp }

// logSizes measures one workload's memory-ordering log in the given mode.
func (c Config) logSizes(name string, mode core.Mode, chunkSize int) (LogSizeRow, error) {
	rec, err := c.recordWorkload(name, mode, chunkSize, core.RecordOptions{TruncSeed: c.Seed})
	if err != nil {
		return LogSizeRow{}, fmt.Errorf("%s: %w", name, err)
	}
	return LogSizeRow{
		Group:     name,
		ChunkSize: chunkSize,
		PIRaw:     rec.BitsPerProcPerKinst(rec.PIRawBits()),
		CSRaw:     rec.BitsPerProcPerKinst(rec.CSRawBits()),
		PIComp:    rec.BitsPerProcPerKinst(rec.PICompressedBits()),
		CSComp:    rec.BitsPerProcPerKinst(rec.CSCompressedBits()),
	}, nil
}

// logSizeFigure runs one figure's sweep: per group (SP2 geomean + the two
// commercial workloads) and per standard chunk size. The full (chunk size
// x workload) cross product fans across the worker pool; rows assemble in
// the figure's fixed order from the index-addressed results.
func (c Config) logSizeFigure(mode core.Mode, chunkSizes []int) ([]LogSizeRow, error) {
	splash, commercial := workload.SplashNames(), workload.CommercialNames()
	names := append(append([]string{}, splash...), commercial...)
	type task struct {
		cs   int
		name string
	}
	var tasks []task
	for _, cs := range chunkSizes {
		for _, name := range names {
			tasks = append(tasks, task{cs: cs, name: name})
		}
	}
	res, err := runner.Map(c.Parallel, len(tasks), func(i int) (LogSizeRow, error) {
		return c.logSizes(tasks[i].name, mode, tasks[i].cs)
	})
	if err != nil {
		return nil, err
	}

	var rows []LogSizeRow
	for ci, cs := range chunkSizes {
		base := ci * len(names)
		rows = append(rows, geoMeanRow("SP2-G.M.", cs, res[base:base+len(splash)]))
		rows = append(rows, res[base+len(splash):base+len(names)]...)
	}
	return rows, nil
}

func geoMeanRow(group string, cs int, rs []LogSizeRow) LogSizeRow {
	pick := func(f func(LogSizeRow) float64) []float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return xs
	}
	// The paper plots arithmetic-style stacked bars for the geometric
	// mean of SPLASH-2; per-component geometric means keep the stack
	// interpretation.
	return LogSizeRow{
		Group:     group,
		ChunkSize: cs,
		PIRaw:     metrics.GeoMean(pick(func(r LogSizeRow) float64 { return r.PIRaw })),
		CSRaw:     metrics.Mean(pick(func(r LogSizeRow) float64 { return r.CSRaw })),
		PIComp:    metrics.GeoMean(pick(func(r LogSizeRow) float64 { return r.PIComp })),
		CSComp:    metrics.Mean(pick(func(r LogSizeRow) float64 { return r.CSComp })),
	}
}

// Fig6 reproduces Figure 6: OrderOnly's PI and CS log sizes at standard
// chunk sizes 1000/2000/3000, against the Basic RTR reference line.
func Fig6(c Config) ([]LogSizeRow, error) {
	return c.logSizeFigure(core.OrderOnly, []int{1000, 2000, 3000})
}

// Fig7 reproduces Figure 7: PicoLog's CS log (there is no PI log).
func Fig7(c Config) ([]LogSizeRow, error) {
	return c.logSizeFigure(core.PicoLog, []int{1000, 2000, 3000})
}

// Fig8 reproduces Figure 8: Order&Size's PI and size logs at maximum
// chunk sizes 1000/2000/3000.
func Fig8(c Config) ([]LogSizeRow, error) {
	return c.logSizeFigure(core.OrderSize, []int{1000, 2000, 3000})
}

// RenderLogSize renders a Figures-6/7/8-shaped table.
func RenderLogSize(title string, rows []LogSizeRow) string {
	t := &metrics.Table{
		Title: title + " (bits/proc/kilo-instruction; RTR reference ≈ 8)",
		Cols:  []string{"group", "chunk", "PI raw", "CS raw", "total raw", "PI comp", "CS comp", "total comp"},
	}
	for _, r := range rows {
		t.AddRow(r.Group, fmt.Sprint(r.ChunkSize),
			metrics.F(r.PIRaw), metrics.F(r.CSRaw), metrics.F(r.TotalRaw()),
			metrics.F(r.PIComp), metrics.F(r.CSComp), metrics.F(r.TotalComp()))
	}
	return t.Render()
}

// Fig9Row is one bar of Figure 9: the PI log size with stratification,
// normalized to the non-stratified OrderOnly PI log.
type Fig9Row struct {
	Group            string
	ChunksPerStratum int // 0 = non-stratified baseline
	NormalizedSize   float64
	BitsPerKinst     float64
}

// Fig9 reproduces Figure 9: stratifying the 2000-instruction OrderOnly
// PI log with 1, 3 or 7 chunks per processor per stratum.
func Fig9(c Config) ([]Fig9Row, error) {
	const chunkSize = 2000
	maxes := []int{1, 3, 7}
	var rows []Fig9Row

	type meas struct {
		base  float64
		strat map[int]float64
	}
	measure := func(name string) (meas, error) {
		m := meas{strat: map[int]float64{}}
		for _, mx := range maxes {
			rec, err := c.recordWorkload(name, core.OrderOnly, chunkSize,
				core.RecordOptions{StratifyMax: mx})
			if err != nil {
				return m, fmt.Errorf("%s: %w", name, err)
			}
			if mx == maxes[0] {
				m.base = rec.BitsPerProcPerKinst(rec.PICompressedBits())
			}
			m.strat[mx] = rec.BitsPerProcPerKinst(rec.Stratified.CompressedBits())
		}
		return m, nil
	}

	emit := func(group string, ms []meas) {
		var bases []float64
		for _, m := range ms {
			bases = append(bases, m.base)
		}
		base := metrics.GeoMean(bases)
		rows = append(rows, Fig9Row{Group: group, ChunksPerStratum: 0, NormalizedSize: 1, BitsPerKinst: base})
		for _, mx := range maxes {
			var vals []float64
			for _, m := range ms {
				vals = append(vals, m.strat[mx])
			}
			v := metrics.GeoMean(vals)
			norm := 0.0
			if base > 0 {
				norm = v / base
			}
			rows = append(rows, Fig9Row{Group: group, ChunksPerStratum: mx, NormalizedSize: norm, BitsPerKinst: v})
		}
	}

	splash, commercial := workload.SplashNames(), workload.CommercialNames()
	names := append(append([]string{}, splash...), commercial...)
	ms, err := runner.Map(c.Parallel, len(names), func(i int) (meas, error) {
		return measure(names[i])
	})
	if err != nil {
		return nil, err
	}
	emit("SP2-G.M.", ms[:len(splash)])
	for i, name := range commercial {
		emit(name, ms[len(splash)+i:len(splash)+i+1])
	}
	return rows, nil
}

// RenderFig9 renders the Figure 9 table.
func RenderFig9(rows []Fig9Row) string {
	t := &metrics.Table{
		Title: "Figure 9: stratified PI log size (2000-inst OrderOnly, compressed)",
		Cols:  []string{"group", "chunks/stratum", "normalized", "bits/proc/kinst"},
	}
	for _, r := range rows {
		label := "PI (unstratified)"
		if r.ChunksPerStratum > 0 {
			label = fmt.Sprint(r.ChunksPerStratum)
		}
		t.AddRow(r.Group, label, metrics.F(r.NormalizedSize), metrics.F(r.BitsPerKinst))
	}
	return t.Render()
}

// BaselineRow is one row of the measured prior-work comparison (§6.1's
// quantitative context, measured rather than quoted).
type BaselineRow struct {
	Workload string
	// Bits/proc/kilo-instruction, compressed.
	FDR, RTR, Strata, StrataNoWAR float64
	// OrderOnly and PicoLog measured on the same workload for direct
	// comparison.
	OrderOnly, PicoLog float64
}

// Baselines measures FDR/RTR/Strata (on SC) and DeLorean's OrderOnly and
// PicoLog logs (on the chunked machine) for every workload, one worker
// per workload. The recorders' logs come from the memoized SC run that
// Figure 10 and the TSO study read, and the OrderOnly and PicoLog
// recordings are the same memoized runs Figures 6, 7, 10 and 11 consume.
func Baselines(c Config) ([]BaselineRow, error) {
	names := c.workloads()
	return runner.Map(c.Parallel, len(names), func(i int) (BaselineRow, error) {
		name := names[i]
		sc := c.runClassic(name, sim.SC)
		if !sc.Converged {
			return BaselineRow{}, fmt.Errorf("%s: SC run did not converge", name)
		}
		row := BaselineRow{Workload: name}
		row.FDR = baseline.BitsPerProcPerKinst(sc.fdrBits, c.Procs, sc.Insts)
		row.RTR = baseline.BitsPerProcPerKinst(sc.rtrBits, c.Procs, sc.Insts)
		row.Strata = baseline.BitsPerProcPerKinst(sc.strataBits, c.Procs, sc.Insts)
		row.StrataNoWAR = baseline.BitsPerProcPerKinst(sc.strataNoWARBits, c.Procs, sc.Insts)

		recOO, err := c.recordWorkload(name, core.OrderOnly, 2000, core.RecordOptions{})
		if err != nil {
			return BaselineRow{}, err
		}
		row.OrderOnly = recOO.BitsPerProcPerKinst(recOO.MemOrderingCompressedBits())
		recPL, err := c.recordWorkload(name, core.PicoLog, 1000, core.RecordOptions{})
		if err != nil {
			return BaselineRow{}, err
		}
		row.PicoLog = recPL.BitsPerProcPerKinst(recPL.MemOrderingCompressedBits())
		return row, nil
	})
}

// RenderBaselines renders the baseline comparison.
func RenderBaselines(rows []BaselineRow) string {
	t := &metrics.Table{
		Title: "Measured recorder log sizes (compressed bits/proc/kilo-instruction)",
		Cols:  []string{"workload", "FDR", "RTR", "Strata", "Strata-noWAR", "OrderOnly", "PicoLog"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, metrics.F(r.FDR), metrics.F(r.RTR), metrics.F(r.Strata),
			metrics.F(r.StrataNoWAR), metrics.F(r.OrderOnly), metrics.F(r.PicoLog))
	}
	return t.Render()
}

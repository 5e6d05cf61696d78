package experiments

import (
	"fmt"

	"delorean/internal/baseline"
	"delorean/internal/mem"
	"delorean/internal/metrics"
	"delorean/internal/runner"
	"delorean/internal/sim"
)

// TSORow answers the paper's open question about Advanced RTR (its
// Table 1 lists TSO recording speed and log size as "Not reported"):
// measured TSO execution speed and the Advanced RTR log, next to Basic
// RTR on SC for the same workload.
type TSORow struct {
	Workload string
	// Speeds vs RC.
	TSOSpeed, SCSpeed float64
	// Compressed bits/proc/kinst.
	AdvRTRLog, BasicRTRLog float64
	// ValueEntries is how many SC-violating loads were value-logged.
	ValueEntries int
}

// TSOStudy measures the Advanced-RTR configuration: recording on the
// TSO machine with value logging for bypassing loads. Workloads fan
// across the worker pool; the RC reference is the memoized run shared
// with Figures 10 and 11, and the SC speed and Basic RTR log come from
// the one memoized SC run Figure 10 and the baseline comparison read.
func TSOStudy(c Config) ([]TSORow, error) {
	names := c.workloads()
	rows, err := runner.Map(c.Parallel, len(names), func(i int) (TSORow, error) {
		name := names[i]
		rc := c.runClassic(name, sim.RC)
		if !rc.Converged {
			return TSORow{}, fmt.Errorf("%s: RC did not converge", name)
		}
		sc := c.runClassic(name, sim.SC)
		if !sc.Converged {
			return TSORow{}, fmt.Errorf("%s: SC did not converge", name)
		}

		w := c.workload(name)
		adv := baseline.NewAdvancedRTR(c.Procs, 0)
		m := w.InitMem()
		tso := baseline.RunModel(c.machine(), sim.TSO, w.Progs, m, w.Devs, adv)
		mem.Put(m)
		if !tso.Converged {
			return TSORow{}, fmt.Errorf("%s: TSO did not converge", name)
		}

		return TSORow{
			Workload:     name,
			TSOSpeed:     metrics.SafeDiv(float64(rc.Cycles), float64(tso.Cycles)),
			SCSpeed:      metrics.SafeDiv(float64(rc.Cycles), float64(sc.Cycles)),
			AdvRTRLog:    baseline.BitsPerProcPerKinst(adv.CompressedBits(), c.Procs, tso.Insts),
			BasicRTRLog:  baseline.BitsPerProcPerKinst(sc.rtrBits, c.Procs, sc.Insts),
			ValueEntries: adv.ValueEntries(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// SPLASH-2 geometric means.
	var ts, ss, al, bl []float64
	for _, r := range rows {
		if splashIn(r.Workload) {
			ts = append(ts, r.TSOSpeed)
			ss = append(ss, r.SCSpeed)
			al = append(al, r.AdvRTRLog)
			bl = append(bl, r.BasicRTRLog)
		}
	}
	rows = append(rows, TSORow{
		Workload:    "SP2-G.M.",
		TSOSpeed:    metrics.GeoMean(ts),
		SCSpeed:     metrics.GeoMean(ss),
		AdvRTRLog:   metrics.GeoMean(al),
		BasicRTRLog: metrics.GeoMean(bl),
	})
	return rows, nil
}

// RenderTSO renders the study.
func RenderTSO(rows []TSORow) string {
	t := &metrics.Table{
		Title: "Extension: Advanced RTR on TSO (the paper's 'Not reported' cells, measured)",
		Cols:  []string{"workload", "TSO xRC", "SC xRC", "AdvRTR bits", "BasicRTR bits", "value entries"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, metrics.F(r.TSOSpeed), metrics.F(r.SCSpeed),
			metrics.F(r.AdvRTRLog), metrics.F(r.BasicRTRLog), fmt.Sprint(r.ValueEntries))
	}
	return t.Render()
}

package main

import (
	"errors"
	"time"
)

// closedOp is one op of a closed loop.
type closedOp struct {
	cpu time.Duration
	// late is the gap between the previous op's end, when this op was
	// due, and its start: the loop's bookkeeping and the host-speed
	// sample.
	late   time.Duration
	rssMB  float64 // peak resident set during the op
	traced bool
	err    error
}

// runClosed calls do back to back, one caller, until the timed phase is
// over and at least minOps ops have run (bounded at four times the
// phase, so a run that cannot reach minOps ends and fails its
// percentile rule instead of hanging). In a traced run every other op
// is traced, so the same run measures the tracing overhead. After each
// op, outside its timing, cal takes one host-speed sample.
func runClosed(seconds time.Duration, minOps int, trace bool, do func(op int, tr *tracer) error, tr *tracer, cal *calibrator) ([]closedOp, error) {
	var ops []closedOp
	start := time.Now()
	prevEnd := start
	for op := 0; ; op++ {
		el := time.Since(start)
		if (el >= seconds && len(ops) >= minOps) || el >= 4*seconds {
			break
		}
		var t *tracer
		if trace && op%2 == 0 {
			t = tr
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0, c0 := time.Now(), processCPU()
		err := do(op, t)
		c1 := processCPU()
		rss, rerr := peakRSSMB(0)
		if rerr != nil {
			return nil, rerr
		}
		ops = append(ops, closedOp{cpu: c1 - c0, late: t0.Sub(prevEnd), rssMB: rss, traced: t != nil, err: err})
		cal.sample()
		prevEnd = time.Now()
	}
	return ops, nil
}

// closedMetrics fills attempted/failed, cpu_per_op_ms (untraced, the
// mean over correct ops, scaled by the host-speed factor f) with
// peak_rss_mb and, for a traced run, the validity diagnostics.
// peak_rss_mb is the median over ops of the peak RSS during each op:
// the process's lifetime peak is one extreme sample, and with two
// simulations allocating at once it moved by a fifth between runs of
// figures.
func closedMetrics(res *result, ops []closedOp, trace bool, f float64) error {
	res.Attempted = len(ops)
	var cpuAll, cpuTraced, cpuPlain, late, rss []float64
	for _, o := range ops {
		late = append(late, ms(o.late))
		rss = append(rss, o.rssMB)
		if o.err != nil {
			res.wrong("op: %v", o.err)
			continue
		}
		c := ms(o.cpu) * f
		cpuAll = append(cpuAll, c)
		if o.traced {
			cpuTraced = append(cpuTraced, c)
		} else {
			cpuPlain = append(cpuPlain, c)
		}
	}
	if trace {
		res.set("gen.late_max_ms", maxOf(late), "ms", len(late))
		res.set("trace.overhead_frac", median(cpuTraced)/median(cpuPlain)-1, "ratio", len(cpuTraced))
		return nil
	}
	if len(cpuAll) == 0 {
		return errors.New("no op came back correct")
	}
	res.set("cpu_per_op_ms", sum(cpuAll)/float64(len(cpuAll)), "ms", len(cpuAll))
	return res.setPct("peak_rss_mb", rss, 50, "MB")
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"delorean/internal/experiments"
)

// figArtifacts is the figures op: Figure 10 (RC/SC classic machines,
// plain BulkSC and all three recording modes), the TSO study (the TSO
// machine model and the RTR recorders) and the FDR/RTR/Strata baseline
// comparison. They share memoized runs — Figure 10's RC/SC references
// with the TSO study, its recordings with the baselines — so the op
// also exercises runner.Memo's sharing. Figure 12 (68 s at quick scale)
// is left out, and replayspeed and savebench would repeat record-save.
var figArtifacts = []struct {
	name string
	run  func(experiments.Config) (string, error)
}{
	{"fig10", func(c experiments.Config) (string, error) {
		rows, err := experiments.Fig10(c)
		return experiments.RenderFig10(rows), err
	}},
	{"tso", func(c experiments.Config) (string, error) {
		rows, err := experiments.TSOStudy(c)
		return experiments.RenderTSO(rows), err
	}},
	{"baselines", func(c experiments.Config) (string, error) {
		rows, err := experiments.Baselines(c)
		return experiments.RenderBaselines(rows), err
	}},
}

// figWorkloads leaves out fft, lu and radix, whose run length ignores
// scale and would make one op take about two seconds.
var figWorkloads = []string{"barnes", "cholesky", "fmm", "ocean", "radiosity", "raytrace", "water-sp", "sjbb2k", "sweb2005"}

type figOut struct {
	hashes map[string]string
	runs   int
}

// figuresOp regenerates the artifacts with a fresh memo cache, so every
// op does the full work, and checks each rendered table against its
// reference hash (nil refs: no check).
func figuresOp(seed uint64, refs map[string]string, op int, tr *tracer) (figOut, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	c := experiments.Quick()
	c.Seed = inputSeed(seed)
	c.Workloads = figWorkloads
	c.Parallel = gomaxprocs
	c.SimParallel = 1
	c.Cache = &experiments.Cache{}
	out := figOut{hashes: map[string]string{}}
	for _, a := range figArtifacts {
		var table string
		err := tr.call(a.name, op, root, func() (err error) {
			table, err = a.run(c)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", a.name, err)
		}
		sum := sha256.Sum256([]byte(table))
		h := hex.EncodeToString(sum[:])
		if refs != nil && refs[a.name] != h {
			return out, fmt.Errorf("%s: rendered table sha256 %s, reference %q", a.name, h, refs[a.name])
		}
		out.hashes[a.name] = h
	}
	out.runs = c.Cache.Runs()
	return out, nil
}

func runFigures(cfg runConfig) (*result, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	inputs := runInputs(cfg.seed)
	want := make([]map[string]string, len(inputs))
	for j, in := range inputs {
		if want[j] = refs.Figures[fmt.Sprint(inputSeed(in))]; want[j] == nil {
			return nil, fmt.Errorf("no figures references for input seed %d", inputSeed(in))
		}
	}
	res := &result{Correct: true}
	// Set-up is one op: the quick configuration's programs are generated
	// inside the harness, so a warm-up op is the only way to take
	// first-use costs out of the timed phase.
	const reps = 7
	first, setup, err := setupReps(reps, func() (figOut, time.Duration, error) {
		o, err := figuresOp(inputs[0], nil, 1<<20, nil)
		return o, 0, err
	}, func(figOut) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	// Medians need 20 samples; a traced run traces only every other op.
	minOps := 2 * minBeyond
	if cfg.trace {
		minOps *= 2
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	ops, err := runClosed(cfg.seconds, minOps, cfg.trace, func(op int, t *tracer) error {
		j := op % len(inputs)
		o, err := figuresOp(inputs[j], want[j], op, t)
		if err == nil && o.runs != first.runs {
			err = fmt.Errorf("memo cache ran %d simulations, set-up ran %d", o.runs, first.runs)
		}
		return err
	}, tr, cal)
	if err != nil {
		return nil, err
	}
	t1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	if err := res.setHost(t0, t1, cal, cfg.trace); err != nil {
		return nil, err
	}
	if err := closedMetrics(res, ops, cfg.trace, res.calFactor); err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.setSetup(setup)
		return res, nil
	}
	res.spans = tr.snapshot()
	res.set("memo.runs", float64(first.runs), "count", 1)
	layer := layerCPUPerOp(res.spans, res.calFactor)
	for _, a := range figArtifacts {
		if err := res.setPct(a.name+".cpu_ms", layer[a.name], 50, "ms"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

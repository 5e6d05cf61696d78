package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"delorean"
)

// rsInput is one input of the record-save bundle. The three inputs share
// memory differently: barnes is contended and checkpointed (the only
// input with segmented replay), fmm in PicoLog has the largest log of
// the kernels whose size follows scale, and sjbb2k carries interrupts,
// I/O and DMA through Order&Size's chunk-size log.
type rsInput struct {
	key       string // reference-hash key
	mode      delorean.Mode
	cfg       delorean.Config
	w         *delorean.Workload
	segmented bool
}

const (
	rsProcs = 4
	rsScale = 120_000
)

func rsBundle(seed uint64) []rsInput {
	s := inputSeed(seed)
	mk := func(name string, mode delorean.Mode, label string, chunk int, ckpt uint64, seg bool) rsInput {
		cfg := delorean.Config{Processors: rsProcs, ChunkSize: chunk, SimulChunks: 2, CheckpointEvery: ckpt, SimParallel: 1}
		return rsInput{key: name + "/" + label, mode: mode, cfg: cfg,
			w: delorean.NewWorkload(name, rsProcs, rsScale, s), segmented: seg}
	}
	return []rsInput{
		mk("barnes", delorean.OrderOnly, "orderonly", 2000, 32, true),
		mk("fmm", delorean.PicoLog, "picolog", 1000, 0, false),
		mk("sjbb2k", delorean.OrderSize, "ordersize", 2000, 0, false),
	}
}

// rsOut is what one input's pass produced, for checks and layer counts.
type rsOut struct {
	hash     string
	bytes    int
	rawBytes int64
	stats    delorean.ExecStats
}

// recordSaveOne takes one input through the CLI record-and-save path:
// Record, SaveParallel(w,1), LoadRecordingParallel(..,1),
// IndexRecording+Materialize(1), a perturbed Replay of the loaded
// recording and, for the checkpointed input, a perturbed segmented
// replay on two workers. Every replay must come back deterministic.
func recordSaveOne(in rsInput, seed uint64, op, i int, tr *tracer, parent int) (rsOut, error) {
	var out rsOut
	var rec, loaded, idx *delorean.Recording
	var data []byte
	err := tr.call("record", op, parent, func() (err error) {
		rec, err = delorean.Record(in.cfg, in.mode, in.w)
		return err
	})
	if err != nil {
		return out, err
	}
	out.stats = rec.Stats()
	err = tr.call("save", op, parent, func() error {
		var buf bytes.Buffer
		err := rec.SaveParallel(&buf, 1)
		data = buf.Bytes()
		return err
	})
	if err != nil {
		return out, fmt.Errorf("%s save: %w", in.key, err)
	}
	sum := sha256.Sum256(data)
	out.hash, out.bytes = hex.EncodeToString(sum[:]), len(data)
	err = tr.call("load", op, parent, func() (err error) {
		loaded, err = delorean.LoadRecordingParallel(bytes.NewReader(data), in.cfg, in.w, 1)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("%s load: %w", in.key, err)
	}
	err = tr.call("index", op, parent, func() (err error) {
		idx, err = delorean.IndexRecording(data, in.cfg, in.w)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("%s index: %w", in.key, err)
	}
	out.rawBytes = idx.MaterializedSizeEstimate()
	if err := tr.call("materialize", op, parent, func() error { return idx.Materialize(1) }); err != nil {
		return out, fmt.Errorf("%s materialize: %w", in.key, err)
	}
	replay := func(name string, r *delorean.Recording, with delorean.ReplayWith) error {
		var res delorean.ReplayResult
		err := tr.call(name, op, parent, func() (err error) {
			res, err = r.Replay(with)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", in.key, name, err)
		}
		if !res.Deterministic {
			return fmt.Errorf("%s %s (perturb seed %d): not deterministic: %+v", in.key, name, with.PerturbSeed, res.Divergence)
		}
		return nil
	}
	p := derive(seed, streamPerturb, uint64(op*8+i*2)) | 1
	if err := replay("replay", loaded, delorean.ReplayWith{PerturbSeed: p, Parallel: 0}); err != nil {
		return out, err
	}
	if in.segmented {
		p2 := derive(seed, streamPerturb, uint64(op*8+i*2+1)) | 1
		if err := replay("replay_seg", idx, delorean.ReplayWith{PerturbSeed: p2, Parallel: 2}); err != nil {
			return out, err
		}
	}
	return out, nil
}

// recordSaveOp runs the whole bundle and checks each container against
// its reference hash (nil refs: no check, for regenerating them).
func recordSaveOp(bundle []rsInput, refs map[string]string, seed uint64, op int, tr *tracer) ([]rsOut, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	outs := make([]rsOut, len(bundle))
	for i, in := range bundle {
		o, err := recordSaveOne(in, seed, op, i, tr, root)
		if err != nil {
			return nil, err
		}
		if refs != nil && refs[in.key] != o.hash {
			return nil, fmt.Errorf("%s: container sha256 %s, reference %q", in.key, o.hash, refs[in.key])
		}
		outs[i] = o
	}
	return outs, nil
}

func runRecordSave(cfg runConfig) (*result, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	inputs := runInputs(cfg.seed)
	want := make([]map[string]string, len(inputs))
	for j, in := range inputs {
		if want[j] = refs.RecordSave[fmt.Sprint(inputSeed(in))]; want[j] == nil {
			return nil, fmt.Errorf("no record-save references for input seed %d", inputSeed(in))
		}
	}
	res := &result{Correct: true}
	// Set-up: generate every input's programs and run one op, so
	// first-use costs (heap growth, page faults) stay out of the timed
	// phase. Its containers are checked with the timed ops, where a wrong
	// hash counts as a failed op.
	bundles, setup, err := setupReps(15, func() ([][]rsInput, time.Duration, error) {
		bs := make([][]rsInput, len(inputs))
		for j, in := range inputs {
			bs[j] = rsBundle(in)
		}
		_, err := recordSaveOp(bs[0], nil, cfg.seed, 1<<20, nil)
		return bs, 0, err
	}, func([][]rsInput) {})
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
	// The peak_rss_mb median needs 20 samples; traced, the per-layer
	// medians need 20 traced ops out of every other op.
	minOps := 2 * minBeyond
	if cfg.trace {
		minOps *= 2
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	// A traced run keeps each op's outputs: the exact counts sum over
	// the run's inputs, the rates over the traced ops.
	outs, byInput := map[int][]rsOut{}, map[int][]rsOut{}
	ops, err := runClosed(cfg.seconds, minOps, cfg.trace, func(op int, t *tracer) error {
		j := op % len(bundles)
		o, err := recordSaveOp(bundles[j], want[j], cfg.seed, op, t)
		if cfg.trace && err == nil {
			outs[op], byInput[j] = o, o
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
	f := res.calFactor
	if err := closedMetrics(res, ops, cfg.trace, f); err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.setSetup(setup)
		return res, nil
	}

	res.spans = tr.snapshot()
	var chunks, squashes uint64
	bytesTotal := 0
	for j := range bundles {
		o, ok := byInput[j]
		if !ok {
			return nil, fmt.Errorf("input %d of %d never ran correctly in the traced run", j, len(bundles))
		}
		for _, x := range o {
			chunks += x.stats.Chunks
			squashes += x.stats.Squashes
			bytesTotal += x.bytes
		}
	}
	res.set("container.bytes", float64(bytesTotal), "bytes", len(bundles))
	res.set("record.useful_chunk_frac", float64(chunks)/float64(chunks+squashes), "ratio", len(bundles))
	var insts uint64
	var raw int64
	for _, op := range tracedOps(res.spans) {
		for _, x := range outs[op] {
			insts += x.stats.Instructions
			raw += x.rawBytes
		}
	}
	layer := layerCPUPerOp(res.spans, f)
	for _, l := range []string{"record", "save", "load", "index", "materialize", "replay", "replay_seg"} {
		xs := layer[l]
		if err := res.setPct(l+".cpu_ms", xs, 50, "ms"); err != nil {
			return nil, err
		}
		if l == "record" {
			res.set("record.minst_per_cpu_s", float64(insts)/1e6/(sum(xs)/1e3), "Minst/s", len(xs))
		}
		if l == "save" {
			res.set("save.raw_mb_per_cpu_s", float64(raw)/1e6/(sum(xs)/1e3), "MB/s", len(xs))
		}
	}
	if err := res.setPct("replay_seg.wall_ms", layerWallPerOp(res.spans)["replay_seg"], 50, "ms"); err != nil {
		return nil, err
	}
	return res, nil
}

// layerCPUPerOp sums each span name's CPU time per traced op and
// returns, per name, one value (ms, scaled by the host-speed factor f)
// per op.
func layerCPUPerOp(spans []span, f float64) map[string][]float64 {
	return perOp(spans, func(s span) float64 { return ms(s.CPU) * f })
}

// tracedOps lists the ops that have a root span.
func tracedOps(spans []span) []int {
	var ops []int
	for _, s := range spans {
		if s.Name == "op" {
			ops = append(ops, s.Op)
		}
	}
	return ops
}

func layerWallPerOp(spans []span) map[string][]float64 {
	return perOp(spans, func(s span) float64 { return ms(s.End - s.Start) })
}

func perOp(spans []span, val func(span) float64) map[string][]float64 {
	type k struct {
		name string
		op   int
	}
	tot := map[k]float64{}
	var order []k
	for _, s := range spans {
		key := k{s.Name, s.Op}
		if _, ok := tot[key]; !ok {
			order = append(order, key)
		}
		tot[key] += val(s)
	}
	out := map[string][]float64{}
	for _, key := range order {
		out[key.name] = append(out[key.name], tot[key])
	}
	return out
}

// Command perfbench is the repository's end-to-end benchmark. Each run
// measures one workload for a fixed time and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports the per-layer ones instead. A readable summary
// (sample counts, host diagnostics and, when traced, a span self-time
// table) goes to standard error. LEDGER.md maps every metric to the
// module it measures; run.sh builds the binaries and runs this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart approximates process start: package initialization runs
// before main, microseconds after exec.
var procStart = time.Now()

// gomaxprocs pins the benchmark's and the daemon's scheduler width. The
// reference host has two cores; the value is fixed so that a run on a
// wider host measures the same configuration.
const gomaxprocs = 2

type runConfig struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	serveBin string
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, for the summary
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not serialized: the summary's diagnostics and the traced spans.
	steal     float64
	calFactor float64
	setupWall float64
	spans     []span
	errors    []string
}

func (r *result) set(name string, v float64, unit string, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// setPct sets a percentile metric, or fails the run when the samples do
// not support it.
func (r *result) setPct(name string, xs []float64, pct int, unit string) error {
	v, err := percentile(xs, pct)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, v, unit, len(xs))
	return nil
}

// wrong records a wrong output: the op counts as failed and the run as
// incorrect. The first few are kept for the summary.
func (r *result) wrong(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.errors) < 8 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the metrics of an untraced run and perLayer those of a
// traced run, as BENCHMARK.json declares them. Every workload reports
// every name of its list (TestManifestMetrics keeps the lists and the
// manifest in step).
var endToEnd = []metricDef{
	{"cpu_per_op_ms", "ms"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

var perLayer = []metricDef{
	{"record.cpu_ms", "ms"}, {"record.minst_per_cpu_s", "Minst/s"}, {"record.useful_chunk_frac", "ratio"},
	{"save.cpu_ms", "ms"}, {"save.raw_mb_per_cpu_s", "MB/s"}, {"container.bytes", "bytes"},
	{"load.cpu_ms", "ms"}, {"index.cpu_ms", "ms"}, {"materialize.cpu_ms", "ms"},
	{"replay.cpu_ms", "ms"}, {"replay_seg.cpu_ms", "ms"}, {"replay_seg.wall_ms", "ms"},
	{"req.p25_ms", "ms"}, {"req.p50_ms", "ms"}, {"req.p99_ms", "ms"},
	{"hit.p50_ms", "ms"}, {"hit.p99_ms", "ms"}, {"describe.p50_ms", "ms"},
	{"miss.p50_ms", "ms"}, {"miss.p90_ms", "ms"}, {"upload.p50_ms", "ms"}, {"upload.p90_ms", "ms"},
	{"cache.hit_ratio", "ratio"}, {"cache.hit_ratio_base", "count"}, {"cache.evicted", "count"},
	{"store.materializations", "count"}, {"store.evictions", "count"},
	{"store.resident_bytes_peak", "bytes"}, {"queue.refused", "count"},
	{"fig10.cpu_ms", "ms"}, {"tso.cpu_ms", "ms"}, {"baselines.cpu_ms", "ms"}, {"memo.runs", "count"},
	{"gen.late_p99_ms", "ms"}, {"gen.late_max_ms", "ms"},
	{"host.steal_frac", "ratio"}, {"host.cal_factor", "ratio"}, {"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// complete checks that a run reported only the metrics of its list, each
// in its unit. An end-to-end metric may not be missing. A per-layer
// metric whose layer the workload does not call reads 0 from 0 samples:
// that layer did no measured work in this workload.
func (r *result) complete(trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		m, ok := r.Metrics[d.name]
		switch {
		case !ok && trace:
			r.set(d.name, 0, d.unit, 0)
		case !ok:
			return fmt.Errorf("end-to-end metric %s not reported", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for n := range r.Metrics {
		if !known[n] {
			return fmt.Errorf("metric %s is not in the manifest's list", n)
		}
	}
	return nil
}

var workloads = map[string]func(runConfig) (*result, error){
	"record-save": runRecordSave,
	"serve-mixed": runServeMixed,
	"figures":     runFigures,
}

func main() {
	var (
		wl        = flag.String("workload", "", "record-save | serve-mixed | figures")
		seed      = flag.Uint64("seed", 1, "workload seed: every input, perturbation, arrival and key draw derives from it")
		seconds   = flag.Int("seconds", 20, "timed phase length in seconds")
		trace     = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		serveBin  = flag.String("serve-bin", ".bench_build/bin/delorean-serve", "delorean-serve binary (serve-mixed)")
		outDir    = flag.String("out", ".bench_build", "directory for the daemon store and span files")
		writeRefs = flag.String("write-refs", "", "regenerate the reference hashes into this file and exit")
		calibrate = flag.Bool("calibrator", false, "run as the host-speed calibration child process (calib.go)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)

	if *calibrate {
		if err := serveCalibrator(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -calibrator:", err)
			os.Exit(1)
		}
		return
	}

	if *writeRefs != "" {
		if err := regenerateRefs(*writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (record-save | serve-mixed | figures), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		serveBin: *serveBin, outDir: *outDir}
	res, err := run(cfg)
	if err == nil {
		err = res.complete(cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	summarize(*wl, cfg, res)
	if cfg.trace {
		if err := saveSpans(cfg, *wl, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func saveSpans(cfg runConfig, wl string, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func summarize(wl string, cfg runConfig, res *result) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%v trace=%v\n", wl, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "  host: nproc=%d GOMAXPROCS=%d %s host.steal_frac=%.4f host.cal_factor=%.4f (CPU-time metrics are raw CPU time times this)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), res.steal, res.calFactor)
	fmt.Fprintf(w, "  ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if res.setupWall > 0 {
		fmt.Fprintf(w, "  set-up wall time (median) %.4f s\n", res.setupWall)
	}
	for _, e := range res.errors {
		fmt.Fprintf(w, "  wrong output: %s\n", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	if cfg.trace {
		printSpanTable(w, res.spans)
	}
}

// setupReps runs a workload's set-up k times, tearing each state down
// before the next set-up, and returns the last state with the medians
// of the set-ups' CPU time and wall time in seconds. setup reports the
// CPU time it caused in other processes (the daemon). CPU time is the
// anchor for the same reason as cpu_per_op_ms: set-up is CPU-bound, and
// its wall time on a host with bursty steal does not repeat. The first
// set-up is timed from process start, so it includes runtime start-up.
func setupReps[S any](k int, setup func() (S, time.Duration, error), teardown func(S)) (S, setupTimes, error) {
	var st S
	var cpus, walls []float64
	for i := 0; i < k; i++ {
		t0, c0 := time.Now(), processCPU()
		if i == 0 {
			t0, c0 = procStart, 0
		} else {
			teardown(st)
		}
		var other time.Duration
		var err error
		if st, other, err = setup(); err != nil {
			return st, setupTimes{}, err
		}
		cpus = append(cpus, (processCPU() - c0 + other).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	return st, setupTimes{cpu: median(cpus), wall: median(walls), n: k}, nil
}

type setupTimes struct {
	cpu, wall float64
	n         int
}

// setSetup reports setup_s (CPU, scaled by the host-speed factor) and
// keeps the wall time for the summary.
func (r *result) setSetup(t setupTimes) {
	r.set("setup_s", t.cpu*r.calFactor, "s", t.n)
	r.setupWall = t.wall
}

// setHost records the timed phase's steal and host-speed factor; a
// traced run also reports them as per-layer diagnostics.
func (r *result) setHost(a, b cpuTicks, cal *calibrator, trace bool) error {
	f, err := cal.factor()
	if err != nil {
		return err
	}
	r.steal, r.calFactor = stealFrac(a, b), f
	if trace {
		r.set("host.steal_frac", r.steal, "ratio", 1)
		r.set("host.cal_factor", r.calFactor, "ratio", len(cal.samples))
	}
	return nil
}

// derive draws an independent 64-bit value for (stream, i) from the
// workload seed (splitmix64 finalizer). Streams separate the uses —
// perturbations, arrivals, key draws — so adding draws to one stream
// never shifts another.
func derive(seed, stream, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i + 1
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Streams for derive.
const (
	streamPerturb = iota + 1
	streamArrival
	streamKeys
	streamUpload
	streamSpec
)

// refPool is how many workload-input seeds carry committed reference
// hashes. A run's simulated inputs (the programs the simulator runs) use
// inputSeed(seed), so every --seed is checked against a reference, while
// perturbations, arrivals and key draws use the full seed.
const refPool = 64

func inputSeed(seed uint64) uint64 { return (seed+refPool-1)%refPool + 1 }

// inputsPerRun is how many inputs a closed-loop run cycles through: op
// i takes the input of seed+(i mod inputsPerRun). The work one input
// makes depends on its seed: at one host speed, record-save's per-op
// CPU time over ten input seeds ranged from 0.86 to 1.09 times their
// median. A run over a single input carried its seed into
// cpu_per_op_ms; a run over sixteen averages that out.
const inputsPerRun = 16

// runInputs lists a run's input seeds, before inputSeed maps them into
// the reference pool.
func runInputs(seed uint64) []uint64 {
	s := make([]uint64, inputsPerRun)
	for j := range s {
		s[j] = seed + uint64(j)
	}
	return s
}

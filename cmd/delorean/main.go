// Command delorean records a workload on the chunked multiprocessor and
// deterministically replays it, printing execution statistics and log
// sizes.
//
// Usage:
//
//	delorean [flags]
//
//	-workload name   built-in workload (default raytrace; see -list)
//	-mode m          ordersize | orderonly | picolog (default orderonly)
//	-procs n         processor count (default 8)
//	-scale n         ~instructions per processor (default 100000)
//	-chunk n         standard chunk size (default 2000; picolog: 1000)
//	-replays n       perturbed replay runs to verify (default 5)
//	-stratify n      also build the stratified PI log (chunks/stratum)
//	-seed n          workload seed
//	-checkpoint n    take a checkpoint every n chunk commits (0: off)
//	-replay-parallel n  replay checkpoint intervals on n workers
//	-save-parallel n    save/load compression workers (bytes identical)
//	-trace-out f     write a Perfetto/chrome trace of the run to f
//	-list            list workloads and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"delorean"
	"delorean/internal/metrics"
)

func main() {
	var (
		wname    = flag.String("workload", "raytrace", "built-in workload name")
		modeStr  = flag.String("mode", "orderonly", "ordersize | orderonly | picolog")
		procs    = flag.Int("procs", 8, "processor count")
		scale    = flag.Int("scale", 100_000, "approximate instructions per processor")
		chunk    = flag.Int("chunk", 0, "standard chunk size (0: mode default)")
		replays  = flag.Int("replays", 5, "perturbed replay runs")
		stratify = flag.Int("stratify", 0, "stratified PI log chunks/stratum (0: off)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		ckEvery  = flag.Uint64("checkpoint", 0, "take a checkpoint every n chunk commits (0: off)")
		repPar   = flag.Int("replay-parallel", 0, "replay checkpoint-delimited intervals on n workers (0: sequential)")
		list     = flag.Bool("list", false, "list workloads and exit")
		savePath = flag.String("save", "", "save the recording to this file")
		savePar  = flag.Int("save-parallel", 0, "save/load compression workers (0: host default, 1: sequential); bytes are identical either way")
		loadPath = flag.String("load", "", "replay a previously saved recording instead of recording")
		traceOut = flag.String("trace-out", "", "write a Perfetto/chrome trace of the recording run (or, with -load, the first replay) to this file")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the in-flight record or replay run: the
	// engine stops within a chunk window and the error explains itself
	// instead of the process dying mid-simulation.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *list {
		fmt.Println(strings.Join(delorean.WorkloadNames(), "\n"))
		return
	}

	var mode delorean.Mode
	switch strings.ToLower(*modeStr) {
	case "ordersize", "order&size":
		mode = delorean.OrderSize
	case "orderonly":
		mode = delorean.OrderOnly
	case "picolog":
		mode = delorean.PicoLog
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeStr)
		os.Exit(2)
	}

	cfg := delorean.DefaultConfig()
	cfg.Processors = *procs
	cfg.Stratify = *stratify
	cfg.CheckpointEvery = *ckEvery
	if *chunk > 0 {
		cfg.ChunkSize = *chunk
	} else if mode == delorean.PicoLog {
		cfg.ChunkSize = 1000
	}

	w := delorean.NewWorkload(*wname, *procs, *scale, *seed)
	var rec *delorean.Recording
	var err error
	if *loadPath != "" {
		f, ferr := os.Open(*loadPath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		rec, err = delorean.LoadRecordingParallel(f, cfg, w, *savePar)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "load failed:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded recording from %s: %s\n", *loadPath, rec.Summary())
	} else {
		fmt.Printf("recording %s in %s mode (%d procs, chunk %d, ~%d insts/proc)...\n",
			*wname, mode, *procs, cfg.ChunkSize, *scale)
		if *traceOut != "" {
			var tr *delorean.ExecTrace
			rec, tr, err = delorean.RecordTraced(cfg, mode, w)
			if err == nil {
				writeTrace(*traceOut, tr)
			}
		} else {
			rec, err = delorean.RecordContext(ctx, cfg, mode, w)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "record failed:", err)
			os.Exit(1)
		}
	}
	if *savePath != "" {
		f, ferr := os.Create(*savePath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		if err := rec.SaveParallel(f, *savePar); err != nil {
			fmt.Fprintln(os.Stderr, "save failed:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, _ := os.Stat(*savePath)
		fmt.Printf("saved recording to %s (%d bytes)\n", *savePath, st.Size())
	}

	st := rec.Stats()
	fmt.Printf("\ninitial execution:\n")
	fmt.Printf("  cycles            %d\n", st.Cycles)
	fmt.Printf("  instructions      %d\n", st.Instructions)
	fmt.Printf("  chunks committed  %d\n", st.Chunks)
	fmt.Printf("  squashes          %d\n", st.Squashes)
	if st.Interrupts+st.IOOps+st.DMAs > 0 {
		fmt.Printf("  interrupts/io/dma %d / %d / %d\n", st.Interrupts, st.IOOps, st.DMAs)
	}
	fmt.Printf("\nmemory-ordering log:\n")
	fmt.Printf("  raw               %d bits\n", rec.LogBits(false))
	fmt.Printf("  compressed        %d bits (%.3f bits/proc/kinst)\n",
		rec.LogBits(true), rec.BitsPerProcPerKinst())
	if *stratify > 0 {
		fmt.Printf("  stratified PI     %d bits compressed\n", rec.StratifiedLogBits())
	}
	fmt.Printf("  at 5 GHz, IPC 1   ~%.1f GB/day\n", rec.EstimateLogGBPerDay(5e9))

	if *repPar > 0 && rec.Checkpoints() > 0 {
		fmt.Printf("\nreplaying %d perturbed runs (segmented: %d intervals on %d workers)...\n",
			*replays, rec.Checkpoints()+1, *repPar)
	} else {
		fmt.Printf("\nreplaying %d perturbed runs...\n", *replays)
	}
	for i := 0; i < *replays; i++ {
		opts := delorean.ReplayWith{
			PerturbSeed:   uint64(1000*i + 17),
			UseStratified: *stratify > 0,
			Parallel:      *repPar,
			Ctx:           ctx,
		}
		var res delorean.ReplayResult
		var err error
		if *loadPath != "" && *traceOut != "" && i == 0 {
			// Recording was loaded, not re-run: trace the first replay
			// instead.
			var tr *delorean.ExecTrace
			res, tr, err = rec.ReplayTraced(opts)
			if err == nil {
				writeTrace(*traceOut, tr)
			}
		} else {
			res, err = rec.Replay(opts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay failed:", err)
			os.Exit(1)
		}
		verdict := "DETERMINISTIC"
		if !res.Deterministic {
			verdict = "DIVERGED"
			if res.DivergentInterval >= 0 {
				verdict = fmt.Sprintf("DIVERGED in interval %d", res.DivergentInterval)
			}
		}
		speed := metrics.SafeDiv(float64(st.Cycles), float64(res.Stats.Cycles))
		fmt.Printf("  run %d: %s (%.0f%% of initial speed)\n", i+1, verdict, 100*speed)
		if !res.Deterministic {
			os.Exit(1)
		}
	}
	fmt.Println("\nall replays reproduced the recording exactly.")
}

// writeTrace exports a captured timeline as chrome trace_event JSON.
func writeTrace(path string, tr *delorean.ExecTrace) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "trace export failed:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote execution trace to %s (%d events; open in ui.perfetto.dev)\n", path, tr.Events())
}

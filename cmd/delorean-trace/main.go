// Command delorean-trace inspects a saved recording: header, log sizes,
// the commit interleaving, and the input logs — the "what did the
// machine actually do" view a replay-debugging session starts from. It
// can also re-execute the recording with timeline capture and export a
// Perfetto/chrome trace, or validate a previously exported trace.
//
// Usage:
//
//	delorean record ... -save run.rec
//	delorean-trace run.rec [-pi 40] [-cs] [-inputs]
//	delorean-trace -perfetto out.json -workload raytrace -scale 100000 run.rec
//	delorean-trace -validate out.json
//
// -perfetto replays the recording with tracing enabled and writes the
// replay timeline as chrome trace_event JSON (open in ui.perfetto.dev).
// Recordings do not store their programs, so the workload must be
// regenerated with the same -workload/-scale/-seed used when recording;
// the processor count and chunk size come from the file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"delorean"
	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/trace"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the command body, separated from main so tests can drive it.
// It returns the process exit code.
func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("delorean-trace", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		piN      = fs.Int("pi", 32, "PI log entries to print (0: none)")
		showCS   = fs.Bool("cs", true, "print CS (truncation) log entries")
		showIn   = fs.Bool("inputs", true, "print input-log summaries")
		perfetto = fs.String("perfetto", "", "replay with tracing and write chrome trace_event JSON to this file")
		validate = fs.String("validate", "", "validate a trace_event JSON file and exit")
		wname    = fs.String("workload", "raytrace", "workload to regenerate for -perfetto (must match the recording)")
		scale    = fs.Int("scale", 100_000, "workload scale for -perfetto (must match the recording)")
		seed     = fs.Uint64("seed", 1, "workload seed for -perfetto (must match the recording)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		n, err := trace.ValidateTraceEvent(data)
		if err != nil {
			fmt.Fprintf(errw, "%s: invalid trace: %v\n", *validate, err)
			return 1
		}
		fmt.Fprintf(out, "%s: valid trace_event JSON, %d events\n", *validate, n)
		return 0
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: delorean-trace [flags] recording-file")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	rec, err := core.ReadRecording(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}

	if *perfetto != "" {
		return exportPerfetto(out, errw, data, rec, *perfetto, *wname, *scale, *seed)
	}

	inspect(out, rec, *piN, *showCS, *showIn)
	return 0
}

// exportPerfetto re-executes the recording under the replay machine with
// timeline capture and writes the trace as chrome trace_event JSON.
func exportPerfetto(out, errw io.Writer, data []byte, rec *core.Recording, path, wname string, scale int, seed uint64) int {
	cfg := delorean.DefaultConfig()
	w := delorean.NewWorkload(wname, rec.NProcs, scale, seed)
	r, err := delorean.LoadRecording(bytes.NewReader(data), cfg, w)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	res, tr, err := r.ReplayTraced(delorean.ReplayWith{})
	if err != nil {
		fmt.Fprintln(errw, "replay failed:", err)
		return 1
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		fmt.Fprintln(errw, "trace export failed:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	verdict := "deterministic"
	if !res.Deterministic {
		verdict = "DIVERGED (trace ends at the divergence marker)"
	}
	fmt.Fprintf(out, "replayed %s: %s, %d cycles, %d events traced\n",
		rec.String(), verdict, res.Stats.Cycles, tr.Events())
	fmt.Fprintf(out, "wrote %s (open in ui.perfetto.dev or chrome://tracing)\n", path)
	return 0
}

// inspect prints the recording's header, commit interleaving and input
// logs.
func inspect(out io.Writer, rec *core.Recording, piN int, showCS, showIn bool) {
	fmt.Fprintln(out, rec.String())
	fmt.Fprintf(out, "  fingerprint %016x, final memory hash %016x\n", rec.Fingerprint, rec.FinalMemHash)
	fmt.Fprintf(out, "  checkpoint: %d nonzero words\n", len(rec.InitialMem))
	fmt.Fprintf(out, "  execution: %d cycles, %d instructions, %d chunks\n",
		rec.Stats.Cycles, rec.Stats.Insts, rec.Stats.Chunks)

	if len(rec.Checkpoints) > 0 {
		// Per-checkpoint storage: what the delta encoding stores (the
		// words that changed since the previous cut) against what a
		// full-image scheme would store (the whole materialized memory),
		// both as raw 12-byte addr/value words before compression.
		fmt.Fprintf(out, "interval checkpoints (%d):\n", len(rec.Checkpoints))
		deltaW, fullW := 0, 0
		for i := range rec.Checkpoints {
			cp := &rec.Checkpoints[i]
			full := 0
			if img, err := rec.MaterializeCheckpoint(i); err == nil {
				full = len(img)
			}
			fmt.Fprintf(out, "  checkpoint %d @ slot %d: delta %d words (%d B), full image %d words (%d B)\n",
				i, cp.Slot, len(cp.MemDelta), 12*len(cp.MemDelta), full, 12*full)
			deltaW += len(cp.MemDelta)
			fullW += full
		}
		if deltaW > 0 {
			fmt.Fprintf(out, "  delta encoding: %d words stored vs %d full-image (%.2fx smaller)\n",
				deltaW, fullW, float64(fullW)/float64(deltaW))
		}
	}
	fmt.Fprintln(out)

	if rec.PI != nil && piN > 0 {
		entries := rec.PI.Entries()
		n := piN
		if n > len(entries) {
			n = len(entries)
		}
		fmt.Fprintf(out, "PI log (%d entries, first %d; %d = DMA):\n  ", rec.PI.Len(), n, rec.NProcs)
		for i := 0; i < n; i++ {
			if entries[i] == bulksc.DMAProc(rec.NProcs) {
				fmt.Fprint(out, "D ")
			} else {
				fmt.Fprintf(out, "%d ", entries[i])
			}
		}
		if n < len(entries) {
			fmt.Fprint(out, "...")
		}
		fmt.Fprintln(out)
		// Per-processor commit counts.
		counts := make([]int, rec.NProcs+1)
		for _, p := range entries {
			counts[p]++
		}
		fmt.Fprint(out, "  per-proc commits: ")
		for p, c := range counts {
			if p == rec.NProcs {
				fmt.Fprintf(out, "DMA=%d", c)
			} else {
				fmt.Fprintf(out, "p%d=%d ", p, c)
			}
		}
		fmt.Fprintln(out)
	} else if rec.PI == nil {
		fmt.Fprintln(out, "PI log: none (PicoLog: commit order is predefined round-robin)")
	}
	fmt.Fprintln(out)

	if showCS {
		total := 0
		for p, cs := range rec.CS {
			for _, e := range cs.Entries() {
				fmt.Fprintf(out, "CS p%d: chunk %d truncated at %d instructions\n", p, e.SeqID, e.Size)
				total++
			}
		}
		if total == 0 {
			fmt.Fprintln(out, "CS log: empty (no non-deterministic truncations)")
		}
		if rec.Sizes != nil {
			n := 0
			for _, sl := range rec.Sizes {
				n += sl.Len()
			}
			fmt.Fprintf(out, "size log (Order&Size): %d chunk sizes recorded\n", n)
		}
		fmt.Fprintln(out)
	}

	if showIn {
		for p, il := range rec.Intr {
			for _, e := range il.Entries() {
				urgency := ""
				if e.Urgent {
					urgency = " (high priority)"
				}
				fmt.Fprintf(out, "interrupt p%d: handler at chunk %d, type %d, data %#x%s\n",
					p, e.SeqID, e.Type, e.Data, urgency)
			}
		}
		for p, io := range rec.IO {
			if io.Len() > 0 {
				fmt.Fprintf(out, "I/O p%d: %d logged load values\n", p, io.Len())
			}
		}
		for i, e := range rec.DMA.Entries() {
			fmt.Fprintf(out, "DMA %d: %d words at %#x (commit slot %d)\n", i, len(e.Data), e.Addr, e.Slot)
		}
		for _, e := range rec.Slots.Entries() {
			fmt.Fprintf(out, "urgent commit: proc %d at slot %d\n", e.Proc, e.Slot)
		}
	}
}

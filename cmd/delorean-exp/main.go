// Command delorean-exp regenerates the paper's evaluation tables and
// figures (Section 6) on this repository's simulator and workloads.
//
// Usage:
//
//	delorean-exp -exp all            # everything (long)
//	delorean-exp -exp fig6           # one artifact
//	delorean-exp -exp fig10,table6   # a subset
//
// Artifacts: table1 table5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table6
// replayspeed savebench baselines tso. Flags scale the runs; see
// EXPERIMENTS.md for the recorded full-scale results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"delorean/internal/experiments"
	"delorean/internal/runner"
	"delorean/internal/sim"
)

func main() {
	var (
		expList  = flag.String("exp", "all", "comma-separated artifacts, or 'all'")
		procs    = flag.Int("procs", 8, "processor count")
		scale    = flag.Int("scale", 150_000, "~instructions per processor")
		seed     = flag.Uint64("seed", 1, "workload seed")
		replays  = flag.Int("replays", 5, "perturbed replays for Fig 11")
		quick    = flag.Bool("quick", false, "small fast configuration")
		parallel = flag.Int("parallel", 0, "worker pool size for independent runs (0: GOMAXPROCS, 1: sequential)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		execTr   = flag.String("exectrace", "", "write a runtime/trace execution trace to this file")
	)
	flag.Parse()

	cfg := experiments.Config{
		Procs: *procs, Scale: *scale, Seed: *seed, ReplayRuns: *replays,
	}
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Parallel = *parallel

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTr != "" {
		// A runtime/trace of the whole run: stalls in the harness's worker
		// pool show up as goroutine wait time, which the CPU profile cannot
		// attribute.
		f, err := os.Create(*execTr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exectrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "exectrace: %v\n", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	wallStart := time.Now()
	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	run := func(name string, f func() (string, error)) {
		if !sel(name) {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table5", func() (string, error) {
		m := sim.Default8()
		m.NProcs = cfg.Procs
		return experiments.RenderTable5(m), nil
	})
	run("fig6", func() (string, error) {
		rows, err := experiments.Fig6(cfg)
		return experiments.RenderLogSize("Figure 6: OrderOnly PI+CS logs", rows), err
	})
	run("fig7", func() (string, error) {
		rows, err := experiments.Fig7(cfg)
		return experiments.RenderLogSize("Figure 7: PicoLog CS log (no PI log)", rows), err
	})
	run("fig8", func() (string, error) {
		rows, err := experiments.Fig8(cfg)
		return experiments.RenderLogSize("Figure 8: Order&Size PI+size logs", rows), err
	})
	run("fig9", func() (string, error) {
		rows, err := experiments.Fig9(cfg)
		return experiments.RenderFig9(rows), err
	})
	run("fig10", func() (string, error) {
		rows, err := experiments.Fig10(cfg)
		return experiments.RenderFig10(rows), err
	})
	run("fig11", func() (string, error) {
		rows, err := experiments.Fig11(cfg)
		return experiments.RenderFig11(rows), err
	})
	run("fig12", func() (string, error) {
		c := cfg
		c.Scale = cfg.Scale / 4 // 72 configurations x 11 kernels
		rows, err := experiments.Fig12(c, nil, nil, nil)
		return experiments.RenderFig12(rows), err
	})
	run("table6", func() (string, error) {
		rows, err := experiments.Table6(cfg)
		return experiments.RenderTable6(rows), err
	})
	run("replayspeed", func() (string, error) {
		rows, err := experiments.ReplaySpeed(cfg, nil)
		return experiments.RenderReplaySpeed(rows), err
	})
	run("savebench", func() (string, error) {
		rows, err := experiments.SaveBench(cfg, nil)
		return experiments.RenderSaveBench(rows), err
	})
	run("baselines", func() (string, error) {
		rows, err := experiments.Baselines(cfg)
		return experiments.RenderBaselines(rows), err
	})
	run("tso", func() (string, error) {
		rows, err := experiments.TSOStudy(cfg)
		return experiments.RenderTSO(rows), err
	})
	run("table1", func() (string, error) {
		d, err := experiments.Table1(cfg)
		return experiments.RenderTable1(d), err
	})

	fmt.Printf("[all selected artifacts took %v on %d workers]\n",
		time.Since(wallStart).Round(time.Millisecond), runner.Workers(cfg.Parallel))
}

package delorean

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"delorean/internal/baseline"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

// TestConcurrentReplaySameRecording locks in the Recording concurrency
// contract: Replay, ReplayTraced and ReplayFromCheckpoint may run
// concurrently on ONE Recording (the serving daemon does exactly this
// when several clients hit the same id), and every concurrent verdict
// is bit-identical to its sequential counterpart. Run under -race in
// CI — the assertions catch verdict drift, the race detector catches
// unsynchronized sharing.
func TestConcurrentReplaySameRecording(t *testing.T) {
	cfg := smallConfig()
	cfg.CheckpointEvery = 25
	w := NewWorkload("raytrace", 4, 12000, 3)
	rec, err := Record(cfg, OrderOnly, w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoints() == 0 {
		t.Fatal("no checkpoints taken; the test needs segmented and interval replays")
	}

	// Sequential ground truth for every variant the goroutines will run.
	seqReplay := func(opts ReplayWith) ReplayResult {
		res, err := rec.Replay(opts)
		if err != nil {
			t.Fatalf("baseline replay %+v: %v", opts, err)
		}
		if !res.Deterministic {
			t.Fatalf("baseline replay %+v diverged", opts)
		}
		return res
	}
	variants := []ReplayWith{
		{PerturbSeed: 11},
		{PerturbSeed: 23},
		{PerturbSeed: 11, Parallel: 2}, // segmented: workers roll checkpoint images forward
	}
	want := make([]ReplayResult, len(variants))
	for i, v := range variants {
		want[i] = seqReplay(v)
	}
	ckRes, err := rec.ReplayFromCheckpoint(0, ReplayWith{PerturbSeed: 5})
	if err != nil || !ckRes.Deterministic {
		t.Fatalf("baseline interval replay: %+v, %v", ckRes, err)
	}

	const goroutines, iters = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (g + it) % 5 {
				case 0, 1, 2: // plain/segmented replays, verdicts must match
					i := (g + it) % len(variants)
					res, err := rec.Replay(variants[i])
					if err != nil {
						t.Errorf("goroutine %d: replay %+v: %v", g, variants[i], err)
						return
					}
					if res != want[i] {
						t.Errorf("goroutine %d: concurrent verdict %+v differs from sequential %+v",
							g, res, want[i])
						return
					}
				case 3: // traced replay allocates a private sink per call
					res, tr, err := rec.ReplayTraced(ReplayWith{PerturbSeed: 11})
					if err != nil || !res.Deterministic || tr == nil || tr.Events() == 0 {
						t.Errorf("goroutine %d: traced replay res=%+v tr=%v err=%v", g, res, tr, err)
						return
					}
				case 4: // interval replay rebuilds the checkpoint image per call
					res, err := rec.ReplayFromCheckpoint(0, ReplayWith{PerturbSeed: 5})
					if err != nil {
						t.Errorf("goroutine %d: interval replay: %v", g, err)
						return
					}
					if res != ckRes {
						t.Errorf("goroutine %d: concurrent interval verdict %+v differs from sequential %+v",
							g, res, ckRes)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentRunsShareFreeLists runs recordings, replays and
// baseline-recorder runs at once. They share the free lists that carry
// engine state from one run to the next: memories (mem.Get/Put), line
// histories, cache hierarchies, the chunked engine's cores with their
// chunk objects, and container frame-encoding buffers, at two processor
// counts. Every concurrent result must equal the sequential one. Run it
// under -race: the assertions catch state that leaks from one run into
// another, the race detector catches unsafe sharing.
func TestConcurrentRunsShareFreeLists(t *testing.T) {
	cfg := smallConfig()
	cfg.CheckpointEvery = 25
	small := smallConfig()
	small.Processors = 2
	type job struct {
		name string
		run  func() (string, error)
	}
	record := func(c Config, mode Mode, w *Workload) func() (string, error) {
		return func() (string, error) {
			rec, err := Record(c, mode, w)
			if err != nil {
				return "", err
			}
			var b bytes.Buffer
			if err := rec.Save(&b); err != nil {
				return "", err
			}
			return fmt.Sprintf("%x %+v", sha256.Sum256(b.Bytes()), rec.Stats()), nil
		}
	}
	w4 := NewWorkload("raytrace", 4, 12000, 3)
	w2 := NewWorkload("barnes", 2, 9000, 5)
	rec, err := Record(cfg, OrderOnly, w4)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(with ReplayWith) func() (string, error) {
		return func() (string, error) {
			res, err := rec.Replay(with)
			if err == nil && !res.Deterministic {
				err = fmt.Errorf("replay %+v diverged", with)
			}
			return fmt.Sprintf("%+v", res), err
		}
	}
	recorders := func(w *Workload, procs int, model sim.Model) func() (string, error) {
		return func() (string, error) {
			c := small.machine()
			c.NProcs = procs
			recs := []baseline.Recorder{baseline.NewFDR(procs), baseline.NewRTR(procs), baseline.NewStrata(procs, false)}
			if model == sim.TSO {
				recs = []baseline.Recorder{baseline.NewAdvancedRTR(procs, 0)}
			}
			m := w.InitMem()
			defer mem.Put(m)
			st := baseline.RunModel(c, model, w.Progs, m, w.Devs, recs...)
			out := fmt.Sprintf("%+v", st)
			for _, r := range recs {
				out += fmt.Sprintf(" %s:%x", r.Name(), sha256.Sum256(r.Log()))
			}
			return out, nil
		}
	}
	jobs := []job{
		{"record 4p", record(cfg, OrderOnly, w4)},
		{"record 2p", record(small, PicoLog, w2)},
		{"replay", replay(ReplayWith{PerturbSeed: 11})},
		{"segmented replay", replay(ReplayWith{PerturbSeed: 7, Parallel: 2})},
		{"recorders SC 4p", recorders(w4, 4, sim.SC)},
		{"recorders SC 2p", recorders(w2, 2, sim.SC)},
		{"recorders TSO 2p", recorders(w2, 2, sim.TSO)},
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		if want[i], err = j.run(); err != nil {
			t.Fatalf("sequential %s: %v", j.name, err)
		}
	}

	const goroutines, iters = 4, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*iters + it) % len(jobs)
				got, err := jobs[i].run()
				if err != nil {
					t.Errorf("goroutine %d: %s: %v", g, jobs[i].name, err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d: concurrent %s gave\n%s\nsequential\n%s", g, jobs[i].name, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

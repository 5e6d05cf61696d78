package delorean

import (
	"sync"
	"testing"
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

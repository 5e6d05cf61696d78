package experiments

import (
	"slices"
	"sync"
	"testing"

	"delorean/internal/mem"
	"delorean/internal/workload"
)

// TestParallelByteIdentical is the harness's determinism contract: the
// parallel runner must render byte-identical tables to a forced
// sequential run. Each variant gets a fresh Cache so the parallel run
// actually recomputes every simulation under concurrency instead of
// reading the sequential run's memoized results.
func TestParallelByteIdentical(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"barnes", "fft", "lu"}

	render := func(parallel int) (fig6, fig10 string) {
		cc := c
		cc.Parallel = parallel
		cc.Cache = &Cache{}
		rows6, err := Fig6(cc)
		if err != nil {
			t.Fatalf("Fig6(parallel=%d): %v", parallel, err)
		}
		rows10, err := Fig10(cc)
		if err != nil {
			t.Fatalf("Fig10(parallel=%d): %v", parallel, err)
		}
		return RenderLogSize("Figure 6", rows6), RenderFig10(rows10)
	}

	seq6, seq10 := render(1)
	par6, par10 := render(8)
	if seq6 != par6 {
		t.Errorf("Fig6 tables differ between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq6, par6)
	}
	if seq10 != par10 {
		t.Errorf("Fig10 tables differ between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq10, par10)
	}
}

// TestMemoSharesRuns pins the cache-sharing contract: rendering Figure 10
// twice must not re-run anything, and the plain BulkSC run and the plain
// and stratified OrderOnly recordings (Figure 11's two inputs) must
// collapse to one run.
func TestMemoSharesRuns(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"barnes"}
	c.Cache = &Cache{}

	if _, err := Fig10(c); err != nil {
		t.Fatal(err)
	}
	runs := c.Cache.Runs()
	if runs == 0 {
		t.Fatal("cache recorded no runs")
	}
	// Fig10 on one workload: RC + SC classic and three recordings
	// (OrderSize, PicoLog, and OrderOnly — shared by the BulkSC, plain
	// OrderOnly and stratified bars). Five distinct runs, not seven.
	if runs != 5 {
		t.Errorf("Fig10 on one workload executed %d distinct runs, want 5 (BulkSC, plain and stratified OrderOnly must share)", runs)
	}

	if _, err := Fig10(c); err != nil {
		t.Fatal(err)
	}
	if again := c.Cache.Runs(); again != runs {
		t.Errorf("second Fig10 executed %d new runs", again-runs)
	}
}

// TestWorkloadBuiltOnce pins how runs share workloads: one Cache
// generates each workload and its initial image once for Figure 10, the
// TSO study and the baselines table together, the generation is not a run
// (the 9-workload figures set stays at 45 runs), and every run gets a
// memory of its own: the cached image equals a fresh build's snapshot,
// memories restored from it at once, as runner workers take them, match
// a fresh build, and a store into one (recycled afterwards) leaves the
// others, the image and later memories as they were.
func TestWorkloadBuiltOnce(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"barnes", "cholesky", "fmm", "ocean", "radiosity", "raytrace", "water-sp", "sjbb2k", "sweb2005"}
	c.Cache = &Cache{}
	built := map[string]*workload.Workload{}
	for _, name := range c.Workloads {
		built[name] = c.workload(name)
	}
	if _, err := Fig10(c); err != nil {
		t.Fatal(err)
	}
	if _, err := TSOStudy(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Baselines(c); err != nil {
		t.Fatal(err)
	}
	if n := c.Cache.workloads.Len(); n != len(c.Workloads) {
		t.Errorf("cache generated %d workloads for %d names", n, len(c.Workloads))
	}
	for name, w := range built {
		if c.workload(name) != w {
			t.Errorf("%s: generated again", name)
		}
	}
	if runs := c.Cache.Runs(); runs != 45 {
		t.Errorf("Figure 10, TSO and baselines on %d workloads executed %d runs, want 45", len(c.Workloads), runs)
	}

	w := built["barnes"]
	fresh := workload.Get("barnes", c.params()).InitMem()
	want := fresh.Hash()
	if len(w.Image) == 0 {
		t.Fatal("barnes has an empty initial image")
	}
	if !slices.Equal(w.Image, fresh.Snapshot()) {
		t.Fatal("the cached image differs from a fresh build")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := w.InitMem()
			defer mem.Put(m)
			if m.Hash() != want {
				t.Errorf("memory %d differs from a fresh build", g)
			}
			w := m.Snapshot()[0]
			m.Store(w.Addr, w.Val+1) // one word of the image
			m.Store(0x7fff_fff0+uint32(g), 5)
			if m.Hash() == want {
				t.Errorf("stores did not change memory %d", g)
			}
		}(g)
	}
	wg.Wait()
	if !slices.Equal(w.Image, fresh.Snapshot()) || w.InitMem().Hash() != want {
		t.Error("a store into one run's memory reached the image")
	}
}

package experiments

import (
	"testing"
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

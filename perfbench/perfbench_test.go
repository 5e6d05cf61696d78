package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		pct, n int
		ok     bool
		want   float64
	}{
		{50, 19, false, 0}, {50, 20, true, 10},
		{90, 99, false, 0}, {90, 100, true, 90},
		{99, 999, false, 0}, {99, 1000, true, 990},
		{90, 0, false, 0},
	} {
		v, err := percentile(seq(c.n), c.pct)
		if (err == nil) != c.ok {
			t.Errorf("p%d of %d samples: err=%v, want ok=%v", c.pct, c.n, err, c.ok)
			continue
		}
		if c.ok && v != c.want {
			t.Errorf("p%d of %d samples = %v, want %v", c.pct, c.n, v, c.want)
		}
	}
}

// A server stall must show in the latency of every request that fell
// due while it lasted, because latency is timed from the due time, not
// from when a connection became free.
func TestOpenLoopStallShowsInLaterLatency(t *testing.T) {
	var gate sync.RWMutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		gate.RLock()
		gate.RUnlock()
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	const (
		n       = 80
		every   = 5 * time.Millisecond
		stallAt = 100 * time.Millisecond
		stall   = 150 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	clients := []*http.Client{newClient(), newClient()}
	stalled := make(chan struct{})
	go func() {
		time.Sleep(stallAt)
		gate.Lock()
		time.Sleep(stall)
		gate.Unlock()
		close(stalled)
	}()
	tm := openLoop(due, len(clients), func(w, i int) {
		code, _, err := do(clients[w], http.MethodGet, srv.URL, "", nil, nil)
		if err != nil || code != http.StatusOK {
			t.Errorf("request %d: %d %v", i, code, err)
		}
	})
	<-stalled
	end := stallAt + stall
	for i, d := range due {
		// Requests due well inside the stall waited for its end.
		if d >= stallAt+20*time.Millisecond && d <= end-20*time.Millisecond {
			if min := end - d - 10*time.Millisecond; tm[i].lat < min {
				t.Errorf("request %d due at %v: latency %v, want >= %v (stall ended at %v)", i, d, tm[i].lat, min, end)
			}
		}
	}
	if last := tm[n-1].lat; last > 100*time.Millisecond {
		t.Errorf("last request latency %v: the backlog never drained", last)
	}
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics("cache.hit 10\ncache.miss 2\nstore.resident_bytes_peak 1000\n")
	if err != nil {
		t.Fatal(err)
	}
	// Prometheus-style underscores, TYPE lines and exponent notation read
	// the same as the dotted registry names.
	after, err := parseMetrics("# TYPE cache_hit counter\ncache_hit 1.5e+01\n\ncache.miss 2\nstore.resident_bytes_peak 4096\nqueue.refused 3\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
	}{{"cache.hit", 5}, {"cache.miss", 0}, {"queue.refused", 3}, {"cache.evicted", 0}} {
		if got := metricDelta(before, after, c.name); got != c.want {
			t.Errorf("delta %s = %v, want %v", c.name, got, c.want)
		}
	}
	if got := metricValue(after, "store.resident_bytes_peak"); got != 4096 {
		t.Errorf("gauge store.resident_bytes_peak = %v, want 4096", got)
	}
	for _, bad := range []string{"cache.hit\n", "cache.hit ten\n"} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestStealFrac(t *testing.T) {
	a, err := parseCPUTicks("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseCPUTicks("cpu  150 0 60 880 10 0 5 95 9 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// Deltas: user 50, system 10, idle 80, steal 60; guest is not added.
	if got := stealFrac(a, b); got != 0.3 {
		t.Errorf("stealFrac = %v, want 0.3", got)
	}
	if _, err := parseCPUTicks("intr 1 2 3\n"); err == nil {
		t.Error("parseCPUTicks accepted a line that is not the cpu total")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", ID: 3, Parent: 1, Start: 20, End: 25},
	}
	want := []time.Duration{50, 25, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	keys := hotKeys(7, 6)
	d1, r1 := schedule(7, 20*time.Second, keys, 6)
	d2, r2 := schedule(7, 20*time.Second, keys, 6)
	if fmt.Sprint(d1, r1) != fmt.Sprint(d2, r2) {
		t.Fatal("same seed gave different schedules")
	}
	d3, _ := schedule(8, 20*time.Second, hotKeys(8, 6), 6)
	if fmt.Sprint(d1) == fmt.Sprint(d3) {
		t.Fatal("different seeds gave the same arrivals")
	}
	var count [nClasses]int
	for _, q := range r1 {
		count[q.class]++
	}
	for c := 1; c < nClasses; c++ {
		if want := int(classShare[c]*float64(len(r1)) + 0.5); count[c] != want {
			t.Errorf("%s: %d requests, want %d", classNames[c], count[c], want)
		}
	}
}

// The reference check must reject a wrong hash, and the committed
// references must hold for the default seed (1) and the held-out seed
// (42), which was not run while the benchmark was tuned.
func TestReferenceHashes(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42} {
		want := refs.RecordSave[fmt.Sprint(seed)]
		if _, err := recordSaveOp(rsBundle(seed), want, seed, 0, nil); err != nil {
			t.Errorf("record-save seed %d: %v", seed, err)
		}
		if _, err := figuresOp(seed, refs.Figures[fmt.Sprint(seed)], 0, nil); err != nil {
			t.Errorf("figures seed %d: %v", seed, err)
		}
	}
	bad := map[string]string{}
	for k, v := range refs.RecordSave["1"] {
		bad[k] = v
	}
	bad["fmm/picolog"] = strings.Repeat("0", 64)
	if _, err := recordSaveOp(rsBundle(1), bad, 1, 0, nil); err == nil || !strings.Contains(err.Error(), "fmm/picolog") {
		t.Errorf("record-save accepted a wrong reference hash: err=%v", err)
	}
	badFig := map[string]string{}
	for k, v := range refs.Figures["1"] {
		badFig[k] = v
	}
	badFig["tso"] = strings.Repeat("0", 64)
	if _, err := figuresOp(1, badFig, 0, nil); err == nil || !strings.Contains(err.Error(), "tso") {
		t.Errorf("figures accepted a wrong reference hash: err=%v", err)
	}
}

// container.bytes, record.useful_chunk_frac and memo.runs are exact:
// they must repeat bit for bit at a fixed seed, whatever the
// perturbation seeds of the op.
func TestExactCountsRepeat(t *testing.T) {
	exact := func(op int) string {
		outs, err := recordSaveOp(rsBundle(3), nil, 3, op, nil)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := figuresOp(3, nil, op, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, o := range outs {
			fmt.Fprintf(&b, "%s %d %d %d|", o.hash, o.bytes, o.stats.Chunks, o.stats.Squashes)
		}
		fmt.Fprintf(&b, "memo=%d", fo.runs)
		return b.String()
	}
	if a, b := exact(0), exact(1); a != b {
		t.Errorf("exact counts differ between ops:\n%s\n%s", a, b)
	}
}

// The host-speed kernel must not allocate: an allocation would put the
// child's GC work into its samples.
func TestCalibratorDoesNotAllocate(t *testing.T) {
	k := newKernel()
	if n := testing.AllocsPerRun(5, k.run); n != 0 {
		t.Errorf("kernel allocates %v times per run", n)
	}
	c := &calibrator{samples: []float64{2 * calRefMS, calRefMS / 2, calRefMS}}
	if f, err := c.factor(); err != nil || f != 1 {
		t.Errorf("factor with median sample calRefMS = %v, %v; want 1", f, err)
	}
}

// The child's side of the calibration exchange: a ready message, one
// CPU time per request, and a clean return when its input ends.
func TestServeCalibrator(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- serveCalibrator(inR, outW) }()
	var b [8]byte
	if _, err := io.ReadFull(outR, b[:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := inW.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(outR, b[:]); err != nil {
			t.Fatal(err)
		}
		if d := time.Duration(binary.LittleEndian.Uint64(b[:])); d <= 0 || d > 10*time.Second {
			t.Errorf("sample %d: kernel CPU time %v", i, d)
		}
	}
	inW.Close()
	if err := <-done; err != nil {
		t.Errorf("serveCalibrator after end of input: %v", err)
	}
}

// The metric lists in main.go must be the manifest's, name for name and
// unit for unit, so that every run prints what BENCHMARK.json declares.
func TestManifestMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list string
		have []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, m.EndToEnd}, {"per_layer", perLayer, m.PerLayer}} {
		if len(c.have) != len(c.want) {
			t.Errorf("%s: %d metrics in code, %d in the manifest", c.list, len(c.have), len(c.want))
			continue
		}
		for i, d := range c.have {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), manifest %s (%s)", c.list, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

// A traced run fills the per-layer metrics its workload does not reach
// with 0; an untraced run missing an end-to-end metric, or any run with
// a metric outside its list, is an error.
func TestCompleteMetrics(t *testing.T) {
	r := &result{}
	r.set("record.cpu_ms", 12.5, "ms", 20)
	if err := r.complete(true); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(perLayer) || r.Metrics["record.cpu_ms"].Value != 12.5 || r.Metrics["hit.p50_ms"] != (metric{Unit: "ms"}) {
		t.Errorf("traced metrics not completed: %+v", r.Metrics)
	}

	r = &result{}
	r.set("cpu_per_op_ms", 1, "ms", 1)
	r.set("peak_rss_mb", 1, "MB", 1)
	if err := r.complete(false); err == nil {
		t.Error("missing setup_s accepted")
	}
	r.set("setup_s", 1, "s", 1)
	if err := r.complete(false); err != nil {
		t.Error(err)
	}
	r.set("hit.p50_ms", 1, "ms", 1)
	if err := r.complete(false); err == nil {
		t.Error("per-layer metric in an untraced run accepted")
	}
	r = &result{}
	r.set("record.cpu_ms", 1, "s", 1)
	if err := r.complete(true); err == nil {
		t.Error("metric in the wrong unit accepted")
	}
}

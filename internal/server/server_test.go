package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"delorean"
)

// goldenPath is the committed v4 container fixture; its workload is the
// registered "syskernel" generator at these parameters (the programs
// are pinned — see workload.SysKernelProgram).
const (
	goldenPath     = "../core/testdata/golden.dlrn"
	goldenQuery    = "workload=syskernel&procs=4&scale=130"
	goldenWorkload = "syskernel"
	goldenProcs    = 4
	goldenScale    = 130
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() { hs.Close(); s.Drain() })
	return s, hs
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	return data
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func upload(t *testing.T, base string, query string, data []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/recordings?"+query, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// errCode decodes the wire error model and returns its code.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not the wire error model: %v\n%s", err, body)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error body missing code/message: %s", body)
	}
	return e.Error.Code
}

// TestRecordReplayTraceRoundTrip drives the full lifecycle over HTTP:
// record from a spec, deduplicate, describe, replay (clean, perturbed),
// export the trace, and read the metrics — then boot a second server on
// the same store directory and find the recording again.
func TestRecordReplayTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{Dir: dir})
	spec := map[string]any{
		"workload": goldenWorkload, "procs": 2, "scale": 300,
		"mode": "orderonly", "chunk_size": 100, "checkpoint_every": 10,
	}

	resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("record: status %d: %s", resp.StatusCode, body)
	}
	var rec recordingJSON
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatalf("record response: %v", err)
	}
	if rec.ID == "" || rec.Stats.Instructions == 0 || rec.SizeBytes == 0 {
		t.Fatalf("implausible record response: %+v", rec)
	}
	if rec.Mode != "OrderOnly" {
		t.Fatalf("mode = %q, want OrderOnly", rec.Mode)
	}

	// The same spec records the same execution: content addressing
	// deduplicates to the same id with 200, not a second entry.
	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-record: status %d: %s", resp.StatusCode, body)
	}
	var rec2 recordingJSON
	if err := json.Unmarshal(body, &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2.ID != rec.ID {
		t.Fatalf("identical spec produced id %s, first gave %s", rec2.ID, rec.ID)
	}

	resp, body = doJSON(t, "GET", hs.URL+"/v1/recordings", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), rec.ID) {
		t.Fatalf("list: status %d body %s", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, "GET", hs.URL+"/v1/recordings/"+rec.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("describe: status %d", resp.StatusCode)
	}

	for name, rbody := range map[string]any{
		"clean":     nil,
		"perturbed": map[string]any{"perturb_seed": 42},
		"segmented": map[string]any{"perturb_seed": 7, "parallel": 2},
	} {
		resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+rec.ID+"/replay", rbody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %s: status %d: %s", name, resp.StatusCode, body)
		}
		var v verdictJSON
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if !v.Deterministic || v.Divergence != nil || v.DivergentInterval != -1 {
			t.Fatalf("replay %s not deterministic: %s", name, body)
		}
		if v.Stats.Instructions != rec.Stats.Instructions {
			t.Fatalf("replay %s executed %d instructions, recording has %d",
				name, v.Stats.Instructions, rec.Stats.Instructions)
		}
	}

	resp, body = doJSON(t, "GET", hs.URL+"/v1/recordings/"+rec.ID+"/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	resp, body = doJSON(t, "GET", hs.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	// "records 2": the deduplicated re-record above still served a record
	// request; only store.recordings counts unique entries.
	for _, want := range []string{"records 2", "replays 3", "traces 1", "store.recordings 1"} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// A second server over the same directory reloads the store.
	_, hs2 := newTestServer(t, Config{Dir: dir})
	resp, body = doJSON(t, "GET", hs2.URL+"/v1/recordings/"+rec.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("describe after reload: status %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", hs2.URL+"/v1/recordings/"+rec.ID+"/replay", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay after reload: status %d: %s", resp.StatusCode, body)
	}
}

// TestUploadGoldenFixture uploads the committed v3 container and checks
// the server's verdict is bit-identical to a direct library replay of
// the same bytes.
func TestUploadGoldenFixture(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	data := goldenBytes(t)

	resp, body := upload(t, hs.URL, goldenQuery, data)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var rec recordingJSON
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoints == 0 {
		t.Fatalf("golden fixture lost its checkpoints: %+v", rec)
	}

	// Same bytes again: deduplicated.
	resp, body = upload(t, hs.URL, goldenQuery, data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload: status %d: %s", resp.StatusCode, body)
	}

	// Direct library replay of the same fixture, same perturbation.
	w := delorean.NewWorkload(goldenWorkload, goldenProcs, goldenScale, 0)
	direct, err := delorean.LoadRecording(bytes.NewReader(data), delorean.Config{}, w)
	if err != nil {
		t.Fatalf("direct load: %v", err)
	}
	const seed = 1017
	want, err := direct.Replay(delorean.ReplayWith{PerturbSeed: seed})
	if err != nil {
		t.Fatalf("direct replay: %v", err)
	}

	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+rec.ID+"/replay",
		map[string]any{"perturb_seed": seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d: %s", resp.StatusCode, body)
	}
	var got verdictJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Deterministic || !want.Deterministic {
		t.Fatalf("replay verdicts: server %v, direct %v", got.Deterministic, want.Deterministic)
	}
	if got.Stats != toStatsJSON(want.Stats) {
		t.Fatalf("server verdict stats differ from direct replay:\n got %+v\nwant %+v",
			got.Stats, toStatsJSON(want.Stats))
	}

	// Segmented replay over HTTP (the fixture has checkpoints).
	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+rec.ID+"/replay",
		map[string]any{"perturb_seed": seed, "parallel": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("segmented replay: status %d: %s", resp.StatusCode, body)
	}
	var seg verdictJSON
	if err := json.Unmarshal(body, &seg); err != nil {
		t.Fatal(err)
	}
	// Segmented timing stats (cycles, squashes) legitimately differ from a
	// sequential perturbed run; the verdict and the work done must not.
	if !seg.Deterministic || seg.Stats.Instructions != got.Stats.Instructions {
		t.Fatalf("segmented verdict differs from sequential: %s", body)
	}
}

// TestErrorTaxonomy pins the wire error model: every failure mode maps
// to its documented status and stable code.
func TestErrorTaxonomy(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxUploadBytes: 1 << 20})
	golden := goldenBytes(t)

	t.Run("truncated upload is 422 corrupt_log", func(t *testing.T) {
		resp, body := upload(t, hs.URL, goldenQuery, golden[:len(golden)/2])
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "corrupt_log" {
			t.Fatalf("code %q", code)
		}
	})

	t.Run("corrupted upload is 422 corrupt_log", func(t *testing.T) {
		// Corrupt a canonical v4 container: past its fixed header every
		// byte is covered by a per-frame CRC (or a validated frame
		// header), so a flip anywhere in the body must be detected. The
		// legacy v3 stream has unchecksummed regions where a flip could
		// hide, which is exactly why v4 is the canonical stored form.
		w := delorean.NewWorkload(goldenWorkload, goldenProcs, goldenScale, 0)
		rec, err := delorean.LoadRecording(bytes.NewReader(golden), delorean.Config{}, w)
		if err != nil {
			t.Fatal(err)
		}
		var v4 bytes.Buffer
		if err := rec.Save(&v4); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), v4.Bytes()...)
		bad[3*len(bad)/4] ^= 0xff
		resp, body := upload(t, hs.URL, goldenQuery, bad)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "corrupt_log" {
			t.Fatalf("code %q", code)
		}
	})

	t.Run("oversized upload is 413 payload_too_large", func(t *testing.T) {
		_, hsSmall := newTestServer(t, Config{MaxUploadBytes: 1024})
		resp, body := upload(t, hsSmall.URL, goldenQuery, golden)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "payload_too_large" {
			t.Fatalf("code %q", code)
		}
	})

	t.Run("unknown id is 404 not_found", func(t *testing.T) {
		for _, u := range []struct{ method, url string }{
			{"GET", hs.URL + "/v1/recordings/deadbeef"},
			{"POST", hs.URL + "/v1/recordings/deadbeef/replay"},
			{"GET", hs.URL + "/v1/recordings/deadbeef/trace"},
		} {
			resp, body := doJSON(t, u.method, u.url, nil)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s %s: status %d: %s", u.method, u.url, resp.StatusCode, body)
			}
			if code := errCode(t, body); code != "not_found" {
				t.Fatalf("code %q", code)
			}
		}
	})

	t.Run("unknown workload is 400 bad_request", func(t *testing.T) {
		resp, body := upload(t, hs.URL, "workload=quicksort&procs=4&scale=130", golden)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "bad_request" {
			t.Fatalf("code %q", code)
		}
	})

	t.Run("missing upload params are 400", func(t *testing.T) {
		resp, body := upload(t, hs.URL, "", golden)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})

	t.Run("bad record spec is 400", func(t *testing.T) {
		for _, spec := range []map[string]any{
			{"workload": "nope", "procs": 2, "scale": 100},
			{"workload": goldenWorkload, "procs": 0, "scale": 100},
			{"workload": goldenWorkload, "procs": 2, "scale": 100, "mode": "turbo"},
		} {
			resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", spec)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("spec %v: status %d: %s", spec, resp.StatusCode, body)
			}
			if code := errCode(t, body); code != "bad_request" {
				t.Fatalf("code %q", code)
			}
		}
	})

	t.Run("exhausted instruction budget is 422 budget_exhausted", func(t *testing.T) {
		// The run needs far more than 1000 instructions: the recorder stops
		// at the budget and the spec, not the server, is at fault.
		resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", map[string]any{
			"workload": goldenWorkload, "procs": 2, "scale": 200, "max_instructions": 1000})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "budget_exhausted" {
			t.Fatalf("code %q", code)
		}
	})

	t.Run("wrong processor count is 400 bad_request", func(t *testing.T) {
		// The golden fixture was recorded with 4 processors; claiming 8 in
		// the spec is a client mistake caught at upload time (via
		// delorean.ErrWorkloadMismatch), not an internal error — storing
		// the mismatch would only manufacture a divergence at replay time.
		resp, body := upload(t, hs.URL, "workload=syskernel&procs=8&scale=130", golden)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "bad_request" {
			t.Fatalf("code %q", code)
		}
	})
}

// TestRecordSimParallel: sim_parallel is a retired knob kept on the wire.
// 0 and 1 record normally; any other value is refused with a typed 400
// instead of being silently ignored.
func TestRecordSimParallel(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := func(par int) map[string]any {
		return map[string]any{"workload": goldenWorkload, "procs": 2, "scale": 200,
			"mode": "orderonly", "chunk_size": 100, "sim_parallel": par}
	}
	for _, par := range []int{2, 8, -1} {
		resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", spec(par))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sim_parallel=%d: status %d: %s", par, resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "bad_request" {
			t.Fatalf("sim_parallel=%d: code %q", par, code)
		}
	}
	for _, par := range []int{0, 1} {
		resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", spec(par))
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("sim_parallel=%d: status %d: %s", par, resp.StatusCode, body)
		}
	}
}

// TestRecordLimits: a record request beyond the limits a recording can
// hold (delorean.MaxProcessors, delorean.MaxChunkSize,
// delorean.MaxStratify) is refused with 400 bad_request before any
// simulation runs, and so is an upload that claims too many processors. The pool is parked and its queue full, so
// a request that got as far as the pool would answer 429 instead; one
// at the limits does.
func TestRecordLimits(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("could not park the worker")
	}
	<-started
	if !s.pool.TrySubmit(func() {}) {
		t.Fatal("could not fill the queue")
	}

	spec := func(procs, chunk, stratify int) map[string]any {
		return map[string]any{"workload": "barnes", "procs": procs, "scale": 40,
			"chunk_size": chunk, "stratify": stratify, "max_instructions": 1000}
	}
	overBudget := spec(2, 100, 0)
	overBudget["max_instructions"] = delorean.MaxInstructionBudget + 1
	for _, sp := range []map[string]any{
		spec(delorean.MaxProcessors+1, 100, 0),
		spec(2, delorean.MaxChunkSize+1, 0),
		spec(2, 100, delorean.MaxStratify+1),
		overBudget,
	} {
		resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", sp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %v: status %d: %s", sp, resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "bad_request" {
			t.Fatalf("spec %v: code %q", sp, code)
		}
	}
	resp, body := upload(t, hs.URL, fmt.Sprintf("workload=syskernel&procs=%d&scale=130", delorean.MaxProcessors+1), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings",
		spec(delorean.MaxProcessors, delorean.MaxChunkSize, delorean.MaxStratify))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("spec at the limits: status %d, want 429 from the full pool: %s", resp.StatusCode, body)
	}
	// The workload is generated on the pool, so a refused request does
	// not pay for it: syskernel at the processor limit allocates about
	// 3.2 MB, a refused request about 12 KB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings",
		map[string]any{"workload": "syskernel", "procs": delorean.MaxProcessors, "scale": 130})
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("syskernel at the limit: status %d, want 429 from the full pool: %s", resp.StatusCode, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a refused syskernel request allocated %d bytes: the workload was generated before the pool accepted it", grew)
	}
}

// TestQueueFull: with every pool worker parked and the queue packed, a
// replay request is refused with 429 instead of queueing unboundedly.
// White-box: the test occupies the pool directly.
func TestQueueFull(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Store a recording while the pool is still free.
	resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", map[string]any{
		"workload": goldenWorkload, "procs": 2, "scale": 40,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("record: status %d: %s", resp.StatusCode, body)
	}
	var rec recordingJSON
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("could not park the worker")
	}
	<-started
	if !s.pool.TrySubmit(func() {}) {
		t.Fatal("could not fill the queue")
	}

	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+rec.ID+"/replay", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "queue_full" {
		t.Fatalf("code %q", code)
	}
	// Every 429 carries an honest backoff hint in whole seconds.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive whole-second count", ra)
	}
	close(block)

	// Once the pool frees up, the same request succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+rec.ID+"/replay", nil)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay still refused after pool drained: %d %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestDeadline: a record request that cannot finish inside the
// per-request deadline is cancelled within a chunk window and reported
// as 504 deadline_exceeded — never a divergence or corruption verdict.
func TestRequestDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{RequestTimeout: 10 * time.Millisecond})
	start := time.Now()
	resp, body := doJSON(t, "POST", hs.URL+"/v1/recordings", map[string]any{
		"workload": goldenWorkload, "procs": 4, "scale": 200_000,
	})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored: request took %v", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "deadline_exceeded" {
		t.Fatalf("code %q", code)
	}
}

// TestUploadPersistsToDisk: an uploaded recording lands on disk in
// canonical form and under its content hash.
func TestUploadPersistsToDisk(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{Dir: dir})
	resp, body := upload(t, hs.URL, goldenQuery, goldenBytes(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var rec recordingJSON
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Persisted {
		t.Fatalf("write-through succeeded but response says persisted=false: %s", body)
	}
	data, err := os.ReadFile(filepath.Join(dir, rec.ID+dataExt))
	if err != nil {
		t.Fatalf("persisted container: %v", err)
	}
	sp, err := os.ReadFile(filepath.Join(dir, rec.ID+specExt))
	if err != nil {
		t.Fatalf("persisted spec: %v", err)
	}
	var spec Spec
	if err := json.Unmarshal(sp, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Workload != goldenWorkload || spec.Procs != goldenProcs || spec.Scale != goldenScale {
		t.Fatalf("persisted spec %+v", spec)
	}
	if got := recordingID(spec, data); got != rec.ID {
		t.Fatalf("persisted bytes hash to %s, filename says %s", got, rec.ID)
	}
	if len(data) < 5 || string(data[:4]) != "DLRN" || data[4] != 4 {
		t.Fatalf("persisted container is not canonical v4 (starts %q)", data[:5])
	}
}

// TestPersistFailureKeepsRecordingServable pins the store's
// degraded-persistence semantics: when the write-through disk write
// fails, the upload still succeeds (the in-memory entry is
// authoritative) but reports persisted=false, the failure lands on the
// store.persist_errors counter, and the recording replays normally.
func TestPersistFailureKeepsRecordingServable(t *testing.T) {
	// A regular file as a path component makes every write under the
	// "directory" fail with ENOTDIR — unlike chmod tricks, this fails
	// even when the tests run as root. loadDir's glob over the
	// nonexistent path matches nothing, so startup is clean.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Dir: filepath.Join(blocker, "store")})

	resp, body := upload(t, hs.URL, goldenQuery, goldenBytes(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload with broken store dir: status %d: %s", resp.StatusCode, body)
	}
	var rec recordingJSON
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Persisted {
		t.Fatalf("persist failed but response says persisted=true: %s", body)
	}

	resp, body = doJSON(t, "GET", hs.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "store.persist_errors 1\n") {
		t.Fatalf("metrics missing store.persist_errors 1:\n%s", body)
	}

	// Degraded durability must not degrade availability: the recording
	// replays from memory.
	resp, body = doJSON(t, "POST", hs.URL+"/v1/recordings/"+rec.ID+"/replay", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay of unpersisted recording: status %d: %s", resp.StatusCode, body)
	}
	var v verdictJSON
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Deterministic {
		t.Fatalf("unpersisted recording replayed non-deterministically: %s", body)
	}
}

// TestUploadDeadline: the per-request deadline reaches the upload path.
// The decode checks the deadline before it starts and after each stage,
// so an expired deadline surfaces as 504 deadline_exceeded — not as a
// corrupt_log misclassification of an abandoned decode.
func TestUploadDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := upload(t, hs.URL, goldenQuery, goldenBytes(t))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "deadline_exceeded" {
		t.Fatalf("code %q", code)
	}
}

// TestBootSkipsPreV4Container: a store directory holding a container of
// an earlier format version (here the golden fixture relabelled v3,
// with a matching content hash and spec sidecar) still boots; the file
// is counted on store.load_errors and skipped, not served.
func TestBootSkipsPreV4Container(t *testing.T) {
	dir := t.TempDir()
	data := goldenBytes(t)
	binary.LittleEndian.PutUint16(data[4:6], 3)
	id := seedStoreEntry(t, dir, data)

	_, hs := newTestServer(t, Config{Dir: dir})
	resp, body := doJSON(t, "GET", hs.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "store.load_errors 1\n") {
		t.Fatalf("metrics missing store.load_errors 1:\n%s", body)
	}
	if resp, body := doJSON(t, "GET", hs.URL+"/v1/recordings/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-v4 entry served: status %d: %s", resp.StatusCode, body)
	}
}

// seedStoreEntry writes data and a golden-workload spec sidecar into a
// store directory under their content-addressed id, as persist would.
func seedStoreEntry(t *testing.T, dir string, data []byte) string {
	t.Helper()
	spec := Spec{Workload: goldenWorkload, Procs: goldenProcs, Scale: goldenScale, Seed: 1}
	id := recordingID(spec, data)
	sp, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+specExt), sp, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+dataExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestBootRemovesStrayTempFiles: a crash between a persist's write and
// its rename leaves a temp file behind. Boot deletes it without counting
// a load error and serves the recordings that were fully persisted.
func TestBootRemovesStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	id := seedStoreEntry(t, dir, goldenBytes(t))
	stray := filepath.Join(dir, id+dataExt+".tmp123")
	if err := os.WriteFile(stray, goldenBytes(t)[:100], 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{Dir: dir})
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived boot: stat err %v", err)
	}
	if body := metricsBody(t, hs.URL); strings.Contains(body, "store.load_errors") {
		t.Fatalf("stray temp file counted as a load error:\n%s", body)
	}
	wantMetric(t, hs.URL, "store.recordings 1")
	if resp, body := doJSON(t, "GET", hs.URL+"/v1/recordings/"+id, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("persisted entry not served: status %d: %s", resp.StatusCode, body)
	}
}

// TestPersistFailureBetweenRenames fails a persist's first rename (the
// spec sidecar's) and then, in a second case, its second (the
// container's). The upload still succeeds but reports "persisted": false;
// a reboot on the same directory counts no load error and finds no file
// left behind; and a retried upload persists, so the next reboot serves
// the identical bytes.
func TestPersistFailureBetweenRenames(t *testing.T) {
	for _, failAt := range []int32{1, 2} {
		t.Run(fmt.Sprintf("rename%d", failAt), func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Config{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var renames atomic.Int32
			s.store.rename = func(oldpath, newpath string) error {
				if renames.Add(1) == failAt {
					return errors.New("injected rename failure")
				}
				return os.Rename(oldpath, newpath)
			}
			hs := httptest.NewServer(s)
			t.Cleanup(func() { hs.Close(); s.Drain() })

			postGolden := func(wantPersisted bool) string {
				t.Helper()
				resp, body := upload(t, hs.URL, goldenQuery, goldenBytes(t))
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
					t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
				}
				var rec recordingJSON
				if err := json.Unmarshal(body, &rec); err != nil {
					t.Fatal(err)
				}
				if rec.Persisted != wantPersisted {
					t.Fatalf("upload says persisted=%v, want %v: %s", rec.Persisted, wantPersisted, body)
				}
				return rec.ID
			}
			id := postGolden(false)
			wantMetric(t, hs.URL, "store.persist_errors 1")

			_, reboot := newTestServer(t, Config{Dir: dir})
			if body := metricsBody(t, reboot.URL); strings.Contains(body, "store.load_errors") {
				t.Fatalf("reboot after a failed persist counted load errors:\n%s", body)
			}
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Fatalf("reboot left %v in the store directory (err %v)", left, err)
			}

			if retried := postGolden(true); retried != id {
				t.Fatalf("retried upload got id %s, first %s", retried, id)
			}
			want, _ := s.store.get(id)
			s2, reboot2 := newTestServer(t, Config{Dir: dir})
			if body := metricsBody(t, reboot2.URL); strings.Contains(body, "store.load_errors") {
				t.Fatalf("reboot after the retried persist counted load errors:\n%s", body)
			}
			got, ok := s2.store.get(id)
			if !ok {
				t.Fatal("retried persist not served after reboot")
			}
			if !bytes.Equal(got.data, want.data) {
				t.Fatal("reboot serves different bytes than were uploaded")
			}
		})
	}
}

// TestBootRejectsDecodedLengthBomb: a stored container whose LZ77 frame
// declares far more decoded bytes than its payload can produce fails to
// index at boot, so its claimed size never reaches residency accounting.
func TestBootRejectsDecodedLengthBomb(t *testing.T) {
	dir := t.TempDir()
	id := seedStoreEntry(t, dir, lz77Bomb(t, goldenBytes(t)))

	s, hs := newTestServer(t, Config{Dir: dir, ResidencyBudget: 1 << 20})
	wantMetric(t, hs.URL, "store.load_errors 1")
	if _, ok := s.store.get(id); ok {
		t.Fatal("bomb container entered the store")
	}
	if st := s.store.stats(); st.peak != 0 || st.materializations != 0 {
		t.Fatalf("residency accounting saw the bomb: %+v", st)
	}
}

// lz77Bomb replaces the payload of the first LZ77 frame of a v4
// container with 16 bytes declaring a 2 GiB decoded length, keeping the
// frame's CRC valid.
func lz77Bomb(t *testing.T, data []byte) []byte {
	t.Helper()
	body := make([]byte, 16)
	binary.LittleEndian.PutUint32(body[0:4], 1<<31) // declared decoded length
	binary.LittleEndian.PutUint32(body[4:8], 64)    // bit length of the 8 packed bytes
	// Common header: magic, version, mode, procs, chunk size, two hashes,
	// one chain per processor and three stats words.
	nprocs := int(binary.LittleEndian.Uint16(data[7:9]))
	const frameHeader = 14 // kind, shard, encoding, payload length, CRC
	for off := 53 + 8*nprocs; off+frameHeader <= len(data); {
		end := off + frameHeader + int(binary.LittleEndian.Uint32(data[off+6:off+10]))
		if data[off+5] == 1 { // LZ77-encoded payload
			out := append([]byte(nil), data[:off+frameHeader]...)
			binary.LittleEndian.PutUint32(out[off+6:off+10], uint32(len(body)))
			binary.LittleEndian.PutUint32(out[off+10:off+14], crc32.ChecksumIEEE(body))
			return append(append(out, body...), data[end:]...)
		}
		off = end
	}
	t.Fatal("container has no LZ77 frame")
	return nil
}

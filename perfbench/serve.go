package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"delorean"
	"delorean/internal/runner"
)

// The serve-mixed traffic: one generator, Poisson arrivals at a fixed
// rate on serveConns keep-alive connections. serveRate is about a fifth
// of what the daemon sustains on the two-core reference host with this
// mix, and is never recalibrated per run, so a slower daemon shows as
// higher latency rather than as less load.
const (
	serveRate  = 200.0 // requests per second
	serveConns = 2
	hotSeeds   = 8 // perturb seeds per stored recording in the hot key set
	zipfS      = 1.2
)

// Request classes and their shares of the schedule; hits take the rest.
const (
	classHit = iota
	classDescribe
	classMiss
	classUpload
	nClasses
)

var (
	classNames  = [nClasses]string{"hit", "describe", "miss", "upload"}
	classShare  = [nClasses]float64{0, 0.08, 0.04, 0.03}
	classStatus = [nClasses]int{http.StatusOK, http.StatusNotModified, http.StatusOK, http.StatusCreated}
)

// serveSpec is a recording the benchmark makes in-process and uploads.
type serveSpec struct {
	workload string
	scale    int
	seed     uint64
	mode     delorean.Mode
	ckpt     uint64
}

const serveProcs = 4

func (s serveSpec) config() delorean.Config {
	chunk := 2000
	if s.mode == delorean.PicoLog {
		chunk = 1000
	}
	return delorean.Config{Processors: serveProcs, ChunkSize: chunk, SimulChunks: 2, CheckpointEvery: s.ckpt, SimParallel: 1}
}

func (s serveSpec) query() string {
	return url.Values{"workload": {s.workload}, "procs": {strconv.Itoa(serveProcs)},
		"scale": {strconv.Itoa(s.scale)}, "seed": {strconv.FormatUint(s.seed, 10)}}.Encode()
}

// storeSpecs is the seed store: contended and device workloads in every
// mode, two of them checkpointed so misses also run segmented state.
func storeSpecs(seed uint64) []serveSpec {
	base := []serveSpec{
		{workload: "barnes", mode: delorean.OrderOnly, ckpt: 32},
		{workload: "sjbb2k", mode: delorean.OrderSize},
		{workload: "sweb2005", mode: delorean.PicoLog},
		{workload: "water-ns", mode: delorean.OrderOnly, ckpt: 32},
		{workload: "fmm", mode: delorean.OrderOnly},
		{workload: "water-sp", mode: delorean.PicoLog},
	}
	for i := range base {
		base[i].scale = 60_000
		base[i].seed = derive(seed, streamSpec, uint64(i))%1_000_000 + 1
	}
	return base
}

// uploadSpecs are the distinct recordings the timed phase uploads.
func uploadSpecs(seed uint64, n int) []serveSpec {
	out := make([]serveSpec, n)
	for j := range out {
		w := "sjbb2k"
		if j%2 == 1 {
			w = "sweb2005"
		}
		out[j] = serveSpec{workload: w, scale: 20_000, mode: delorean.OrderOnly,
			seed: derive(seed, streamUpload, uint64(j))%1_000_000_000 + 1}
	}
	return out
}

// makeContainers records and saves each spec on gomaxprocs workers,
// returning the containers and their summed materialized size.
func makeContainers(specs []serveSpec) ([][]byte, int64, error) {
	type made struct {
		data []byte
		est  int64
	}
	ms, err := runner.Map(gomaxprocs, len(specs), func(i int) (made, error) {
		s := specs[i]
		w := delorean.NewWorkload(s.workload, serveProcs, s.scale, s.seed)
		rec, err := delorean.Record(s.config(), s.mode, w)
		if err != nil {
			return made{}, err
		}
		var buf bytes.Buffer
		if err := rec.SaveParallel(&buf, 1); err != nil {
			return made{}, err
		}
		idx, err := delorean.IndexRecording(buf.Bytes(), s.config(), w)
		if err != nil {
			return made{}, err
		}
		return made{buf.Bytes(), idx.MaterializedSizeEstimate()}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]byte, len(ms))
	var est int64
	for i, m := range ms {
		out[i] = m.data
		est += m.est
	}
	return out, est, nil
}

// schedReq is one scheduled request.
type schedReq struct {
	class int
	id    int    // store recording index (hit, describe, miss)
	seed  uint64 // perturb seed (hit, miss)
	up    int    // upload index
}

type hotKey struct {
	id   int
	seed uint64
}

func hotKeys(seed uint64, ids int) []hotKey {
	var ks []hotKey
	for id := 0; id < ids; id++ {
		for s := 0; s < hotSeeds; s++ {
			ks = append(ks, hotKey{id, derive(seed, streamPerturb, uint64(id*hotSeeds+s)) | 1})
		}
	}
	return ks
}

// schedule draws the timed phase from the seed: Poisson due times, an
// exact class count per share shuffled over them, Zipf-popular hot keys
// for hits and fresh perturb seeds for misses.
func schedule(seed uint64, span time.Duration, keys []hotKey, ids int) ([]time.Duration, []schedReq) {
	due := poissonArrivals(rand.New(rand.NewSource(int64(derive(seed, streamArrival, 0)))), serveRate, span)
	r := rand.New(rand.NewSource(int64(derive(seed, streamKeys, 0))))
	classes := make([]int, len(due))
	i := 0
	for c := 1; c < nClasses; c++ {
		for k := 0; k < int(classShare[c]*float64(len(due))+0.5); k++ {
			classes[i] = c
			i++
		}
	}
	r.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
	popular := r.Perm(len(keys)) // popularity rank -> key
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(keys)-1))
	reqs := make([]schedReq, len(due))
	ups := 0
	for i, c := range classes {
		q := schedReq{class: c}
		switch c {
		case classHit:
			k := keys[popular[zipf.Uint64()]]
			q.id, q.seed = k.id, k.seed
		case classDescribe:
			q.id = r.Intn(ids)
		case classMiss:
			q.id = r.Intn(ids)
			q.seed = derive(seed, streamPerturb, uint64(1<<32+i)) | 1
		case classUpload:
			q.up = ups
			ups++
		}
		reqs[i] = q
	}
	return due, reqs
}

// daemon is a running delorean-serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	stderr *tailBuffer
	done   chan error
}

// startDaemon boots delorean-serve on a free loopback port over a fresh
// persisted store and waits for /healthz.
func startDaemon(bin, dir string, budget int64) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, dir: dir, stderr: &tailBuffer{max: 16 << 10}, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", addr, "-store", dir,
		"-workers", strconv.Itoa(gomaxprocs), "-queue", "16",
		"-resident-budget", strconv.FormatInt(budget, 10),
		"-cache-entries", "4096", "-cache-bytes", strconv.Itoa(256<<20))
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	d.cmd.Stdout, d.cmd.Stderr = d.stderr, d.stderr
	// If the benchmark dies, the kernel kills the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("daemon exited during boot: %v\n%s", err, d.stderr)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 20s\n%s", d.stderr)
		}
	}
}

// stop drains the daemon with SIGTERM (killing it after 20 s), waits
// for it to exit and removes its store.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports nothing useful either way
		<-d.done
	}
	os.RemoveAll(d.dir)
}

// tailBuffer keeps the last max bytes written, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// do sends one request and reads the whole body.
func do(c *http.Client, method, u, ctype string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// parseMetrics reads /metrics text: one "name value" per line, "#"
// comments and blank lines skipped. Names are keyed with dots turned
// into underscores, so a dotted registry name and its Prometheus form
// ("cache.hit", "cache_hit") read the same.
func parseMetrics(text string) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("metrics line %q: want name and value", line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[metricKey(f[0])] = v
	}
	return m, sc.Err()
}

func metricKey(name string) string { return strings.ReplaceAll(name, ".", "_") }

// metricDelta is after-before for a counter; a name absent from a
// snapshot has not been touched yet and reads 0.
func metricDelta(before, after map[string]float64, name string) float64 {
	return after[metricKey(name)] - before[metricKey(name)]
}

func metricValue(m map[string]float64, name string) float64 { return m[metricKey(name)] }

func scrape(c *http.Client, base string) (map[string]float64, error) {
	st, b, err := do(c, http.MethodGet, base+"/metrics", "", nil, nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", st)
	}
	return parseMetrics(string(b))
}

type recordingJSON struct {
	ID        string `json:"id"`
	SizeBytes int    `json:"size_bytes"`
}

type verdictJSON struct {
	ID            string `json:"id"`
	Deterministic bool   `json:"deterministic"`
}

// serveState is one set-up: the daemon, its stored ids, the primed hot
// bodies and the upload containers.
type serveState struct {
	d       *daemon
	ids     []string
	keys    []hotKey
	primed  map[hotKey][]byte
	uploads [][]byte
	upSpecs []serveSpec
	due     []time.Duration
	reqs    []schedReq
}

func serveSetup(cfg runConfig) (*serveState, error) {
	st := &serveState{}
	specs := storeSpecs(cfg.seed)
	store, est, err := makeContainers(specs)
	if err != nil {
		return nil, fmt.Errorf("seed store: %w", err)
	}
	st.keys = hotKeys(cfg.seed, len(specs))
	st.due, st.reqs = schedule(cfg.seed, cfg.seconds, st.keys, len(specs))
	nUp := 0
	for _, q := range st.reqs {
		if q.class == classUpload {
			nUp++
		}
	}
	st.upSpecs = uploadSpecs(cfg.seed, nUp)
	if st.uploads, _, err = makeContainers(st.upSpecs); err != nil {
		return nil, fmt.Errorf("upload set: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("serve-store-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	// Half the seed store's materialized size: misses over all ids churn
	// the residency manager.
	if st.d, err = startDaemon(cfg.serveBin, dir, est/2); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for i, s := range specs {
		code, body, err := do(c, http.MethodPost, st.d.base+"/v1/recordings?"+s.query(), "application/octet-stream", store[i], nil)
		if err != nil || code != http.StatusCreated {
			st.d.stop()
			return nil, fmt.Errorf("upload seed recording %d: status %d err %v: %s", i, code, err, body)
		}
		var rj recordingJSON
		if err := json.Unmarshal(body, &rj); err != nil || rj.ID == "" {
			st.d.stop()
			return nil, fmt.Errorf("upload seed recording %d: bad response %q", i, body)
		}
		st.ids = append(st.ids, rj.ID)
	}
	// Prime the verdict cache with every hot key; these first bodies are
	// what every later hit must repeat byte for byte.
	st.primed = map[hotKey][]byte{}
	for _, k := range st.keys {
		code, body, err := do(c, http.MethodPost, st.d.base+"/v1/recordings/"+st.ids[k.id]+"/replay",
			"application/json", replayBody(k.seed), nil)
		if err == nil && code == http.StatusOK {
			err = checkVerdict(body, st.ids[k.id])
		} else if err == nil {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err != nil {
			st.d.stop()
			return nil, fmt.Errorf("prime %v: %w", k, err)
		}
		st.primed[k] = body
	}
	return st, nil
}

func replayBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"perturb_seed":%d}`, seed))
}

func checkVerdict(body []byte, id string) error {
	var v verdictJSON
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("verdict: %w", err)
	}
	if v.ID != id || !v.Deterministic {
		return fmt.Errorf("verdict %s", bytes.TrimSpace(body))
	}
	return nil
}

// reqResult is what one timed request returned.
type reqResult struct {
	code int
	body []byte
	err  error
}

// send issues request i of the schedule.
func (st *serveState) send(c *http.Client, i int) reqResult {
	q := st.reqs[i]
	var r reqResult
	switch q.class {
	case classHit, classMiss:
		r.code, r.body, r.err = do(c, http.MethodPost, st.d.base+"/v1/recordings/"+st.ids[q.id]+"/replay",
			"application/json", replayBody(q.seed), nil)
	case classDescribe:
		id := st.ids[q.id]
		r.code, r.body, r.err = do(c, http.MethodGet, st.d.base+"/v1/recordings/"+id, "", nil,
			map[string]string{"If-None-Match": `"` + id + `"`})
	case classUpload:
		r.code, r.body, r.err = do(c, http.MethodPost, st.d.base+"/v1/recordings?"+st.upSpecs[q.up].query(),
			"application/octet-stream", st.uploads[q.up], nil)
	}
	return r
}

// check returns why request i's response is wrong, or nil. A 429 or
// 5xx is a failed op; so is any body that differs from the first one
// served for the same (id, seed).
func (st *serveState) check(i int, r reqResult) error {
	q := st.reqs[i]
	if r.err != nil {
		return r.err
	}
	if want := classStatus[q.class]; r.code != want {
		return fmt.Errorf("%s: status %d, want %d: %.200s", classNames[q.class], r.code, want, r.body)
	}
	switch q.class {
	case classHit:
		if !bytes.Equal(r.body, st.primed[hotKey{q.id, q.seed}]) {
			return fmt.Errorf("hit %s seed %d: body differs from first response", st.ids[q.id], q.seed)
		}
	case classMiss:
		return checkVerdict(r.body, st.ids[q.id])
	case classUpload:
		var rj recordingJSON
		if err := json.Unmarshal(r.body, &rj); err != nil || rj.ID == "" || rj.SizeBytes != len(st.uploads[q.up]) {
			return fmt.Errorf("upload %d: bad response %.200s", q.up, r.body)
		}
	}
	return nil
}

func runServeMixed(cfg runConfig) (*result, error) {
	if _, err := os.Stat(cfg.serveBin); err != nil {
		return nil, fmt.Errorf("delorean-serve binary: %w", err)
	}
	const reps = 5
	st, setup, err := setupReps(reps, func() (*serveState, time.Duration, error) {
		st, err := serveSetup(cfg)
		if err != nil {
			return nil, 0, err
		}
		c, err := pidCPU(st.d.cmd.Process.Pid)
		if err != nil {
			st.d.stop()
		}
		return st, c, err
	}, func(s *serveState) { s.d.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.d.stop()

	admin := newClient()
	defer admin.CloseIdleConnections()
	m0, err := scrape(admin, st.d.base)
	if err != nil {
		return nil, err
	}
	clients := make([]*http.Client, serveConns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	results := make([]reqResult, len(st.reqs))
	pid := st.d.cmd.Process.Pid
	cpu0, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	t0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	// Host-speed samples every 100 ms during the timed phase, on the
	// client side: about 9% of one core, the same on every run.
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	stopCal, calDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(calDone)
		cal.every(100*time.Millisecond, stopCal)
	}()
	timings := openLoop(st.due, serveConns, func(w, i int) {
		id := -1
		if cfg.trace && i%2 == 0 {
			id = tr.begin(classNames[st.reqs[i].class], i, -1)
		}
		results[i] = st.send(clients[w], i)
		if id >= 0 {
			tr.end(id)
		}
	})
	close(stopCal)
	<-calDone
	t1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	cpu1, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	m1, err := scrape(admin, st.d.base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: len(st.reqs)}
	if err := res.setHost(t0, t1, cal, cfg.trace); err != nil {
		return nil, err
	}
	var all, late []float64
	var byClass [nClasses][]float64
	var hitTraced, hitPlain []float64
	for i, r := range results {
		late = append(late, ms(timings[i].late))
		if err := st.check(i, r); err != nil {
			res.wrong("request %d: %v", i, err)
			continue
		}
		l := ms(timings[i].lat)
		c := st.reqs[i].class
		all = append(all, l)
		byClass[c] = append(byClass[c], l)
		if c == classHit {
			if cfg.trace && i%2 == 0 {
				hitTraced = append(hitTraced, l)
			} else {
				hitPlain = append(hitPlain, l)
			}
		}
	}
	if !cfg.trace {
		res.set("cpu_per_op_ms", ms(cpu1-cpu0)*res.calFactor/float64(len(st.reqs)), "ms", len(st.reqs))
		res.setSetup(setup)
		res.set("peak_rss_mb", rss, "MB", 1)
		return res, nil
	}

	res.spans = tr.snapshot()
	for _, p := range []struct {
		name  string
		class int
		pct   int
	}{
		{"req.p25_ms", -1, 25}, {"req.p50_ms", -1, 50}, {"req.p99_ms", -1, 99},
		{"hit.p50_ms", classHit, 50}, {"hit.p99_ms", classHit, 99}, {"describe.p50_ms", classDescribe, 50},
		{"miss.p50_ms", classMiss, 50}, {"miss.p90_ms", classMiss, 90},
		{"upload.p50_ms", classUpload, 50}, {"upload.p90_ms", classUpload, 90},
	} {
		xs := all
		if p.class >= 0 {
			xs = byClass[p.class]
		}
		if err := res.setPct(p.name, xs, p.pct, "ms"); err != nil {
			return nil, err
		}
	}
	hits, misses := metricDelta(m0, m1, "cache.hit"), metricDelta(m0, m1, "cache.miss")
	if hits+misses == 0 {
		return nil, errors.New("no cache lookups counted over the timed phase")
	}
	res.set("cache.hit_ratio", hits/(hits+misses), "ratio", int(hits+misses))
	res.set("cache.hit_ratio_base", hits+misses, "count", 1)
	for _, n := range []string{"cache.evicted", "store.materializations", "store.evictions", "queue.refused"} {
		res.set(n, metricDelta(m0, m1, n), "count", 1)
	}
	res.set("store.resident_bytes_peak", metricValue(m1, "store.resident_bytes_peak"), "bytes", 1)
	if err := res.setPct("gen.late_p99_ms", late, 99, "ms"); err != nil {
		return nil, err
	}
	res.set("gen.late_max_ms", maxOf(late), "ms", len(late))
	res.set("trace.overhead_frac", median(hitTraced)/median(hitPlain)-1, "ratio", len(hitTraced))
	return res, nil
}

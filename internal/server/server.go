// Package server is the record/replay daemon: an HTTP facade over the
// public delorean API. Recordings live in a content-addressed store
// (in-memory, write-through to disk); simulation work — recording from
// a workload spec, replay verification, traced replay for the Perfetto
// export — runs on a bounded worker pool with per-request deadlines, so
// load beyond the queue is refused with 429 instead of piling up, and a
// cancelled or expired request stops its engine within a chunk window.
//
//	POST   /v1/recordings              upload a container (?workload=&procs=&scale=&seed=)
//	POST   /v1/recordings              record from a JSON spec (Content-Type: application/json)
//	GET    /v1/recordings              list stored ids
//	GET    /v1/recordings/{id}         describe one recording
//	POST   /v1/recordings/{id}/replay  replay, returning the verdict
//	GET    /v1/recordings/{id}/trace   replay with tracing, returning Perfetto JSON
//	DELETE /v1/recordings/{id}/cache   drop the id's cached verdicts/traces
//	DELETE /v1/cache                   drop every cached verdict/trace
//	GET    /metrics                    counter snapshot, one "name value" per line
//	GET    /healthz                    readiness probe (503 + Retry-After once draining)
//
// The serving hot path exploits determinism twice. First, verdicts and
// traces are pure functions of (content-addressed recording id, replay
// parameters), so they are cached: a repeat request is answered
// byte-for-byte identically without touching the simulator, concurrent
// identical requests collapse into one simulation (single-flight), and
// responses carry a strong ETag (the recording id) with
// Cache-Control: immutable so clients and proxies can revalidate with
// If-None-Match and get 304. Second, recordings are held index-only —
// canonical compressed bytes plus a CRC-checked frame index — and
// materialized into decoded logs only while replays need them, under a
// configurable resident-byte budget (Config.ResidencyBudget) with LRU
// eviction back to canonical bytes.
//
// Every request passes through a middleware stack (see middleware.go):
// an X-Request-ID is adopted or assigned and reflected on the response,
// one structured log line is emitted per completed request, and a
// handler panic degrades to a logged 500 instead of a crashed process.
//
// Every error response is the same JSON shape:
//
//	{"error": {"code": "corrupt_log", "message": "..."}}
//
// with codes bad_request (400), not_found (404), payload_too_large
// (413), corrupt_log (422), budget_exhausted (422: a record request's
// run hit its instruction budget), queue_full (429), internal (500), and
// deadline_exceeded (504). Two more codes appear in logs and metrics
// but are rarely seen by their client: client_closed_request (499,
// nginx's convention) marks a request whose client disconnected before
// the verdict — the status is written into a dead connection but keeps
// the access log honest — and every queue_full response carries a
// Retry-After header (whole seconds) so clients can implement jittered
// backoff against an honest hint instead of guessing.
//
// Concurrency: handlers share only the store (internally locked), the
// counter registry (guarded by Server.mu, never held across a network
// write), and the simulation pool. Replay handlers call
// delorean.Recording methods concurrently on shared *entry values;
// that is safe by the Recording concurrency contract — replay is
// reentrant, with per-call engine state — so two clients replaying the
// same id proceed in parallel and get bit-identical verdicts.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delorean"
	"delorean/internal/core"
	"delorean/internal/metrics"
	"delorean/internal/runner"
)

// Config tunes a Server. The zero value is usable: no disk store, host
// defaults for workers, and the documented default caps.
type Config struct {
	// Dir, when non-empty, is the write-through store directory; existing
	// recordings under it are loaded at New time.
	Dir string
	// Workers is the simulation pool size (0: host default).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 16).
	QueueDepth int
	// MaxUploadBytes caps a recording upload's body (default 64 MiB).
	MaxUploadBytes int64
	// RequestTimeout bounds each simulation request (default 2 minutes;
	// negative: no deadline).
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint sent (rounded up to whole seconds)
	// in the Retry-After header of every 429 and of the 503 a draining
	// /healthz returns (default 1s).
	RetryAfter time.Duration
	// ResidencyBudget caps the bytes of materialized (decoded) recording
	// state resident at once; recordings beyond it are evicted back to
	// their canonical compressed bytes LRU-first and re-materialized on
	// demand (0: unlimited).
	ResidencyBudget int64
	// CacheEntries bounds the verdict/trace response cache by entry
	// count (default 256).
	CacheEntries int
	// CacheBytes bounds the verdict/trace response cache by summed body
	// bytes (default 64 MiB).
	CacheBytes int64
	// Logger receives the structured request log and operational
	// warnings (store load/persist failures, handler panics). Nil
	// discards everything — tests stay quiet; deployments should pass a
	// real logger (cmd/delorean-serve does).
	Logger *slog.Logger
}

const (
	defaultQueueDepth   = 16
	defaultUploadCap    = 64 << 20
	defaultReqTimeout   = 2 * time.Minute
	defaultRetryAfter   = time.Second
	defaultCacheEntries = 256
	defaultCacheBytes   = 64 << 20
	maxRecordSpecBytes  = 1 << 20
)

// Server is the daemon. Create with New, serve via http.Server, then
// Drain on shutdown (after http.Server.Shutdown has returned, so no
// handler still needs the pool).
type Server struct {
	cfg   Config
	store *store
	cache *verdictCache
	pool  *runner.Pool
	mux   *http.ServeMux
	h     http.Handler // mux behind the middleware stack
	log   *slog.Logger

	// draining flips once shutdown begins; /healthz turns 503 so load
	// balancers stop routing here while in-flight requests finish.
	draining atomic.Bool

	// reg collects serving counters. metrics.Registry is not
	// goroutine-safe; mu serializes handler access. The lock is only
	// ever held for in-memory mutation or snapshotting — never across a
	// network write (handleMetrics snapshots, releases, then writes), so
	// a slow /metrics scraper cannot stall every handler's count().
	mu  sync.Mutex
	reg *metrics.Registry
}

// New builds a Server and loads any recordings persisted under
// cfg.Dir. Load errors of individual cache entries are logged and
// reported on the "store.load_errors" counter rather than failing
// startup.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = defaultUploadCap
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = defaultReqTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = defaultCacheBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:   cfg,
		store: newStore(cfg.Dir, cfg.ResidencyBudget),
		cache: newVerdictCache(cfg.CacheEntries, cfg.CacheBytes),
		pool:  runner.NewPool(cfg.Workers, cfg.QueueDepth),
		mux:   http.NewServeMux(),
		log:   cfg.Logger,
		reg:   metrics.NewRegistry(),
	}
	for _, err := range s.store.loadDir() {
		s.count("store.load_errors", 1)
		s.log.Warn("store entry failed to load", "dir", cfg.Dir, "error", err)
	}
	s.count("store.recordings", float64(len(s.store.ids())))
	s.mux.HandleFunc("POST /v1/recordings", s.handleCreate)
	s.mux.HandleFunc("GET /v1/recordings", s.handleList)
	s.mux.HandleFunc("GET /v1/recordings/{id}", s.handleDescribe)
	s.mux.HandleFunc("POST /v1/recordings/{id}/replay", s.handleReplay)
	s.mux.HandleFunc("GET /v1/recordings/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/recordings/{id}/cache", s.handleCacheInvalidate)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCacheClear)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.h = withRequestID(s.withAccessLog(s.withRecovery(s.mux)))
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// BeginDrain marks the server as draining: /healthz flips to 503 (with
// a Retry-After hint) so load balancers take this instance out of
// rotation while in-flight requests complete. Call before
// http.Server.Shutdown; requests keep being served until Drain.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain stops the simulation pool after completing accepted jobs. Call
// after http.Server.Shutdown so no in-flight handler is still waiting
// on the pool.
func (s *Server) Drain() {
	s.BeginDrain()
	s.pool.Drain()
}

func (s *Server) count(name string, d float64) {
	s.mu.Lock()
	s.reg.Add(name, d)
	s.mu.Unlock()
}

// --- error model ---

type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// classify maps any handler error onto the stable wire taxonomy.
func classify(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return errf(http.StatusRequestEntityTooLarge, "payload_too_large",
			"request body exceeds %d bytes", tooBig.Limit)
	case errors.Is(err, delorean.ErrWorkloadMismatch):
		// The uploaded container does not fit the ?workload=&procs= spec:
		// a client mistake caught at upload time, not a server fault —
		// storing it would only manufacture a spurious divergence at
		// replay time.
		return errf(http.StatusBadRequest, "bad_request", "%v", err)
	case errors.Is(err, core.ErrCorruptLog):
		return errf(http.StatusUnprocessableEntity, "corrupt_log", "%v", err)
	case errors.Is(err, delorean.ErrNotConverged):
		// The spec asked for more work than its instruction budget allows:
		// a well-formed request the simulator cannot satisfy as given.
		return errf(http.StatusUnprocessableEntity, "budget_exhausted", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return errf(http.StatusGatewayTimeout, "deadline_exceeded", "%v", err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is written into the void but
		// keeps logs and tests honest. 499 is nginx's convention.
		return &apiError{status: 499, code: "client_closed_request", msg: err.Error()}
	default:
		return errf(http.StatusInternalServerError, "internal", "%v", err)
	}
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	ae := classify(err)
	s.count("errors."+ae.code, 1)
	if ae.status == http.StatusTooManyRequests {
		// Every 429 carries an honest backoff hint; clients add their own
		// jitter on top.
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": ae.code, "message": ae.msg},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// --- job scheduling ---

// submit runs fn on the simulation pool and waits for it. The wait is
// unconditional even when ctx expires first: fn observes ctx through
// the engine's cancellation and returns within a chunk window, and
// never outliving the handler is what keeps Shutdown+Drain clean.
func (s *Server) submit(fn func()) error {
	done := make(chan struct{})
	if !s.pool.TrySubmit(func() { defer close(done); fn() }) {
		s.count("queue.refused", 1)
		return errf(http.StatusTooManyRequests, "queue_full",
			"simulation queue is full (%d queued); retry later", s.pool.Queued())
	}
	<-done
	return nil
}

// reqCtx applies the per-request deadline.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// --- wire types ---

type statsJSON struct {
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	Chunks       uint64 `json:"chunks"`
	Squashes     uint64 `json:"squashes"`
	Interrupts   uint64 `json:"interrupts"`
	IOOps        uint64 `json:"io_ops"`
	DMAs         uint64 `json:"dmas"`
}

func toStatsJSON(st delorean.ExecStats) statsJSON {
	return statsJSON{Cycles: st.Cycles, Instructions: st.Instructions, Chunks: st.Chunks,
		Squashes: st.Squashes, Interrupts: st.Interrupts, IOOps: st.IOOps, DMAs: st.DMAs}
}

type recordingJSON struct {
	ID          string `json:"id"`
	Spec        Spec   `json:"spec"`
	Mode        string `json:"mode"`
	Checkpoints int    `json:"checkpoints"`
	LogBits     int    `json:"log_bits_compressed"`
	SizeBytes   int    `json:"size_bytes"`
	// Persisted reports whether the recording is durably on disk: false
	// on a memory-only store, and false when the write-through persist
	// failed (the recording still serves replays but will not survive a
	// restart — see store.put's degraded-persistence semantics).
	Persisted bool      `json:"persisted"`
	Stats     statsJSON `json:"stats"`
}

// describeWith renders the describe payload from rec, which must be
// materialized (LogBits walks decoded logs): either the eager recording
// a create handler just decoded, or e.rec while the caller holds an
// acquire pin. The result is cached on the entry via primeDesc.
func describeWith(e *entry, rec *delorean.Recording) recordingJSON {
	return recordingJSON{
		ID:          e.id,
		Spec:        e.spec,
		Mode:        rec.Mode().String(),
		Checkpoints: rec.Checkpoints(),
		LogBits:     rec.LogBits(true),
		SizeBytes:   len(e.data),
		Persisted:   e.persisted.Load(),
		Stats:       toStatsJSON(rec.Stats()),
	}
}

type divergenceJSON struct {
	Kind     string `json:"kind"`
	Slot     int64  `json:"slot"`
	Proc     int    `json:"proc"`
	SeqID    int64  `json:"seq_id"`
	Interval int    `json:"interval"`
	Detail   string `json:"detail"`
}

type verdictJSON struct {
	ID                string          `json:"id"`
	Deterministic     bool            `json:"deterministic"`
	DivergentInterval int             `json:"divergent_interval"`
	Divergence        *divergenceJSON `json:"divergence,omitempty"`
	Stats             statsJSON       `json:"stats"`
}

func toVerdictJSON(id string, res delorean.ReplayResult) verdictJSON {
	v := verdictJSON{
		ID:                id,
		Deterministic:     res.Deterministic,
		DivergentInterval: res.DivergentInterval,
		Stats:             toStatsJSON(res.Stats),
	}
	if d := res.Divergence; d != nil {
		v.Divergence = &divergenceJSON{Kind: d.Kind, Slot: d.Slot, Proc: d.Proc,
			SeqID: d.SeqID, Interval: d.Interval, Detail: d.Detail}
	}
	return v
}

// --- response caching ---

// etagFor is the strong validator for everything derived from a stored
// recording: the store is content-addressed, so the id IS the content
// hash and a derived response can never change under the same id.
func etagFor(id string) string { return `"` + id + `"` }

func setImmutable(w http.ResponseWriter, id string) {
	w.Header().Set("ETag", etagFor(id))
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
}

// notModified answers 304 when the client's If-None-Match covers the
// recording's ETag, reporting whether the request is done.
func notModified(w http.ResponseWriter, r *http.Request, id string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	match := strings.TrimSpace(inm) == "*"
	for _, part := range strings.Split(inm, ",") {
		if strings.TrimSpace(part) == etagFor(id) {
			match = true
		}
	}
	if !match {
		return false
	}
	setImmutable(w, id)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// writeCached writes a rendered (possibly cached) verdict or trace
// body. The bytes were produced by the exact encoder the cold path
// uses, so hits are byte-identical to misses.
func (s *Server) writeCached(w http.ResponseWriter, key cacheKey, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	setImmutable(w, key.id)
	if key.kind == "trace" {
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", key.id+".trace.json"))
	}
	w.WriteHeader(http.StatusOK)
	if _, werr := w.Write(body); werr != nil && key.kind == "trace" {
		s.count("errors.trace_stream", 1)
	}
}

// countServed keeps the request counters cache-transparent: every
// served verdict counts as a replay (and every divergent one as
// divergent) whether it came from the simulator, the single-flight
// leader, or the cache.
func (s *Server) countServed(key cacheKey, v cachedVerdict) {
	if key.kind == "trace" {
		s.count("traces", 1)
		return
	}
	s.count("replays", 1)
	if v.divergent {
		s.count("replays.divergent", 1)
	}
}

// serveCached is the one cached-simulation path, shared by replay and
// trace: ETag revalidation, then the verdict cache, then single-flight
// coalescing around a miss. The single-flight leader pins e's decoded
// form and runs render, which simulates and renders the response, on
// the pool. It does so under a detached context (bounded by
// RequestTimeout, not by the leader's own request): a leader whose
// client disconnects or times out must not poison the waiters piled on
// its flight — errors are never cached, and the result is delivered to
// every waiter that is still there.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, e *entry, key cacheKey,
	render func(ctx context.Context) (cachedVerdict, error)) {
	if notModified(w, r, key.id) {
		return
	}
	if v, ok := s.cache.get(key); ok {
		s.count("cache.hit", 1)
		s.countServed(key, v)
		s.writeCached(w, key, v.body)
		return
	}
	call, leader := s.cache.flight.Join(key)
	if !leader {
		s.count("cache.inflight_dedup", 1)
		select {
		case <-r.Context().Done():
			s.fail(w, r.Context().Err())
			return
		case <-call.Done():
		}
		v, err := call.Result()
		if err != nil {
			s.fail(w, err)
			return
		}
		s.countServed(key, v)
		s.writeCached(w, key, v.body)
		return
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	defer cancel()
	v, err := s.simulate(ctx, e, render)
	if err != nil {
		call.Finish(v, err)
		s.fail(w, err)
		return
	}
	// Publish to the cache before retiring the flight: a request arriving
	// between the two must find either the open flight or the cached
	// body, never a gap that would elect a second leader.
	s.count("cache.miss", 1)
	if ev := s.cache.put(key, v); ev > 0 {
		s.count("cache.evicted", float64(ev))
	}
	call.Finish(v, nil)
	s.countServed(key, v)
	s.writeCached(w, key, v.body)
}

// simulate pins e's decoded form and runs render on the pool.
func (s *Server) simulate(ctx context.Context, e *entry,
	render func(ctx context.Context) (cachedVerdict, error)) (v cachedVerdict, err error) {
	if aerr := s.store.acquire(ctx, e); aerr != nil {
		return v, aerr
	}
	defer s.store.release(e)
	if jobErr := s.submit(func() { v, err = render(ctx) }); jobErr != nil {
		return v, jobErr
	}
	return v, err
}

// --- handlers ---

// specFromQuery parses the upload identification parameters.
func specFromQuery(r *http.Request) (Spec, error) {
	q := r.URL.Query()
	spec := Spec{Workload: q.Get("workload")}
	if spec.Workload == "" {
		return spec, errf(http.StatusBadRequest, "bad_request",
			"upload requires ?workload=&procs=&scale= identifying the programs")
	}
	var err error
	if spec.Procs, err = strconv.Atoi(q.Get("procs")); err != nil {
		return spec, errf(http.StatusBadRequest, "bad_request", "bad procs: %v", err)
	}
	if spec.Scale, err = strconv.Atoi(q.Get("scale")); err != nil {
		return spec, errf(http.StatusBadRequest, "bad_request", "bad scale: %v", err)
	}
	if v := q.Get("seed"); v != "" {
		if spec.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return spec, errf(http.StatusBadRequest, "bad_request", "bad seed: %v", err)
		}
	}
	if err := spec.validate(); err != nil {
		return spec, errf(http.StatusBadRequest, "bad_request", "%v", err)
	}
	return spec, nil
}

// recordSpec is the record-from-spec request body.
type recordSpec struct {
	Spec
	Mode            string `json:"mode"`
	ChunkSize       int    `json:"chunk_size"`
	CheckpointEvery uint64 `json:"checkpoint_every"`
	Stratify        int    `json:"stratify"`
	// SimParallel is accepted for wire compatibility only: 0 and 1 are
	// the same single-goroutine simulation, and any other value is a 400.
	SimParallel     int    `json:"sim_parallel"`
	MaxInstructions uint64 `json:"max_instructions"`
}

// config is the one validator of a record request: it checks every
// field once, answering 400 bad_request for the first bad one, and
// returns the recorder configuration and mode the request asks for.
func (rs recordSpec) config() (delorean.Config, delorean.Mode, error) {
	bad := func(format string, args ...any) (delorean.Config, delorean.Mode, error) {
		return delorean.Config{}, 0, errf(http.StatusBadRequest, "bad_request", format, args...)
	}
	var mode delorean.Mode
	switch strings.ToLower(rs.Mode) {
	case "", "orderonly":
		mode = delorean.OrderOnly
	case "ordersize", "order&size":
		mode = delorean.OrderSize
	case "picolog":
		mode = delorean.PicoLog
	default:
		return bad("unknown mode %q (ordersize | orderonly | picolog)", rs.Mode)
	}
	switch {
	case rs.ChunkSize > delorean.MaxChunkSize:
		return bad("chunk_size %d exceeds the limit of %d instructions", rs.ChunkSize, delorean.MaxChunkSize)
	case rs.Stratify > delorean.MaxStratify:
		return bad("stratify %d exceeds the limit of %d chunks per stratum", rs.Stratify, delorean.MaxStratify)
	case rs.MaxInstructions > delorean.MaxInstructionBudget:
		return bad("max_instructions %d exceeds the limit of %d", rs.MaxInstructions, uint64(delorean.MaxInstructionBudget))
	case rs.SimParallel != 0 && rs.SimParallel != 1:
		return bad("sim_parallel must be 0 or 1 (the simulator has one scheduler), got %d", rs.SimParallel)
	}
	if err := rs.Spec.validate(); err != nil {
		return bad("%v", err)
	}
	cfg := delorean.Config{
		Processors:      rs.Procs,
		ChunkSize:       rs.ChunkSize,
		SimulChunks:     2,
		Stratify:        rs.Stratify,
		CheckpointEvery: rs.CheckpointEvery,
		MaxInstructions: rs.MaxInstructions,
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 2000 // the paper's chunk size, halved for PicoLog
		if mode == delorean.PicoLog {
			cfg.ChunkSize = 1000
		}
	}
	return cfg, mode, nil
}

// decodeFunc yields the decoded recording a create request stores. It
// runs on the pool and may observe ctx.
type decodeFunc func(ctx context.Context, wl *delorean.Workload) (*delorean.Recording, error)

// handleCreate stores a recording: either an uploaded container
// (identified by workload query parameters) or a fresh recording made
// from a JSON spec. Each body parses into a validated spec, the counter
// the request counts on and a decodeFunc; create does the rest.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	parse := s.parseUpload
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		parse = parseRecord
	}
	spec, counter, decode, err := parse(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.create(w, r, spec, counter, decode)
}

// parseUpload reads an uploaded container, identified by the query
// parameters; it is indexed and decoded on the pool.
func (s *Server) parseUpload(w http.ResponseWriter, r *http.Request) (Spec, string, decodeFunc, error) {
	spec, err := specFromQuery(r)
	if err != nil {
		return spec, "", nil, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	return spec, "uploads", func(_ context.Context, wl *delorean.Workload) (*delorean.Recording, error) {
		rec, err := delorean.IndexRecording(body, delorean.Config{}, wl)
		if err != nil {
			return nil, err
		}
		return rec, rec.Materialize(0)
	}, err
}

// parseRecord reads a JSON record spec; the recording is made on the
// pool.
func parseRecord(_ http.ResponseWriter, r *http.Request) (Spec, string, decodeFunc, error) {
	var rs recordSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRecordSpecBytes)).Decode(&rs); err != nil {
		return rs.Spec, "", nil, errf(http.StatusBadRequest, "bad_request", "record spec: %v", err)
	}
	cfg, mode, err := rs.config()
	return rs.Spec, "records", func(ctx context.Context, wl *delorean.Workload) (*delorean.Recording, error) {
		return delorean.RecordContext(ctx, cfg, mode, wl)
	}, err
}

// create stores the recording decode yields for spec and answers with
// its describe payload: 201 for a new id, 200 for one already stored.
// The work runs on the pool. The deadline is checked before decoding
// and after each stage, so an expired request stops at the next stage
// boundary, and a stage that fails after the deadline passed reports
// the deadline, not its own error. The workload is generated on the
// pool too, so a request the pool refuses costs no generation.
func (s *Server) create(w http.ResponseWriter, r *http.Request, spec Spec, counter string, decode decodeFunc) {
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	var e *entry
	var created bool
	var err, persistErr error
	jobErr := s.submit(func() {
		halt := func(stageErr error) bool {
			err = stageErr
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			return err != nil
		}
		if halt(nil) {
			return
		}
		wl := spec.instantiate()
		rec, derr := decode(ctx, wl)
		if halt(derr) {
			return
		}
		canonical, cerr := canonicalize(rec)
		if halt(cerr) {
			return
		}
		// Store the recording index-only over its canonical bytes: decode
		// already validated it, so the stored form can start cold and
		// materialize on first replay, under the budget.
		idx, xerr := delorean.IndexRecording(canonical, delorean.Config{}, wl)
		if xerr != nil {
			err = xerr
			return
		}
		e, created, persistErr = s.store.put(idx, spec, canonical)
		e.primeDesc(describeWith(e, rec))
	})
	if jobErr != nil {
		err = jobErr
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.notePersist(persistErr, e)
	s.count(counter, 1)
	status := http.StatusOK
	if created {
		s.count("store.recordings", 1)
		status = http.StatusCreated
	}
	d, _ := e.cachedDesc()
	writeJSON(w, status, d)
}

// notePersist records a degraded write-through: the recording is in the
// in-memory store and fully replayable, but the disk copy is missing,
// so a restart loses it. The response still succeeds (with
// "persisted": false); the failure surfaces here and on the
// store.persist_errors counter.
func (s *Server) notePersist(persistErr error, e *entry) {
	if persistErr == nil {
		return
	}
	s.count("store.persist_errors", 1)
	s.log.Warn("write-through persist failed; recording is memory-only",
		"id", e.id, "error", persistErr)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"recordings": s.store.ids()})
}

func (s *Server) lookup(r *http.Request) (*entry, error) {
	id := r.PathValue("id")
	e, ok := s.store.get(id)
	if !ok {
		return nil, errf(http.StatusNotFound, "not_found", "no recording %q", id)
	}
	return e, nil
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if notModified(w, r, e.id) {
		return
	}
	d, ok := e.cachedDesc()
	if !ok {
		// Entry restored index-only at startup: LogBits needs decoded
		// logs, so materialize under the budget once and cache the result.
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		if aerr := s.store.acquire(ctx, e); aerr != nil {
			s.fail(w, aerr)
			return
		}
		e.primeDesc(describeWith(e, e.rec))
		s.store.release(e)
		d, _ = e.cachedDesc()
	}
	setImmutable(w, e.id)
	writeJSON(w, http.StatusOK, d)
}

// replaySpec is the replay request body (an empty body replays
// sequentially with clean timing).
type replaySpec struct {
	PerturbSeed   uint64 `json:"perturb_seed"`
	UseStratified bool   `json:"use_stratified"`
	Parallel      int    `json:"parallel"`
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var rs replaySpec
	if r.ContentLength != 0 {
		if derr := json.NewDecoder(io.LimitReader(r.Body, maxRecordSpecBytes)).Decode(&rs); derr != nil {
			s.fail(w, errf(http.StatusBadRequest, "bad_request", "replay spec: %v", derr))
			return
		}
	}
	key := cacheKey{id: e.id, kind: "replay", seed: rs.PerturbSeed, strat: rs.UseStratified, par: rs.Parallel}
	s.serveCached(w, r, e, key, func(ctx context.Context) (cachedVerdict, error) {
		res, err := e.rec.Replay(delorean.ReplayWith{
			PerturbSeed:   rs.PerturbSeed,
			UseStratified: rs.UseStratified,
			Parallel:      rs.Parallel,
			Ctx:           ctx,
		})
		if err != nil {
			return cachedVerdict{}, err
		}
		// Render through the same encoder writeJSON uses, so cached hits
		// are byte-identical (trailing newline included) to cold misses.
		// A divergence is a well-formed verdict, not a transport error:
		// it renders, caches, and serves as a 200 like any other.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(toVerdictJSON(e.id, res)); err != nil {
			return cachedVerdict{}, err
		}
		return cachedVerdict{body: buf.Bytes(), divergent: !res.Deterministic}, nil
	})
}

// handleTrace replays the recording with timeline capture and returns
// the Perfetto (chrome trace_event) JSON. Loaded recordings carry no
// trace of their original run, so the trace is always produced by a
// deterministic replay — which also makes the rendered bytes pure and
// cacheable under the same (id, params) key scheme as verdicts.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.serveCached(w, r, e, cacheKey{id: e.id, kind: "trace"}, func(ctx context.Context) (cachedVerdict, error) {
		_, tr, err := e.rec.ReplayTraced(delorean.ReplayWith{Ctx: ctx})
		if err != nil {
			return cachedVerdict{}, err
		}
		var buf bytes.Buffer
		if err := tr.WritePerfetto(&buf); err != nil {
			return cachedVerdict{}, err
		}
		return cachedVerdict{body: buf.Bytes()}, nil
	})
}

// handleCacheInvalidate drops every cached verdict and trace for one
// recording — the admin escape hatch when a cached response must be
// recomputed (e.g. after a simulator fix changes verdict rendering).
func (s *Server) handleCacheInvalidate(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	n := s.cache.invalidate(e.id)
	s.count("cache.invalidated", float64(n))
	writeJSON(w, http.StatusOK, map[string]int{"invalidated": n})
}

// handleCacheClear drops the whole verdict cache.
func (s *Server) handleCacheClear(w http.ResponseWriter, _ *http.Request) {
	n := s.cache.clear()
	s.count("cache.invalidated", float64(n))
	writeJSON(w, http.StatusOK, map[string]int{"invalidated": n})
}

// handleHealthz is the readiness probe: 200 while serving, 503 with a
// Retry-After hint once BeginDrain has been called, so orchestrators
// stop routing new work here while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleMetrics snapshots the registry under the lock and writes the
// snapshot after releasing it: the network write is at the mercy of the
// scraper's read loop, and a stalled scraper must not block every
// handler's count().
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Snapshot the store and cache before taking s.mu: both have their
	// own locks, and a fixed acquisition order (theirs, then ours) keeps
	// the gauges deadlock-free against handlers that count() while
	// holding neither.
	st := s.store.stats()
	entries, cacheBytes := s.cache.stats()
	s.mu.Lock()
	s.reg.Set("queue.depth", float64(s.pool.Queued()))
	s.reg.Set("queue.running", float64(s.pool.Running()))
	s.reg.Set("store.resident_bytes", float64(st.resident))
	s.reg.Set("store.resident_budget", float64(st.budget))
	s.reg.SetMax("store.resident_bytes_peak", float64(st.peak))
	s.reg.Set("store.materializations", float64(st.materializations))
	s.reg.Set("store.evictions", float64(st.evictions))
	s.reg.Set("store.overcommits", float64(st.overcommits))
	s.reg.Set("store.persist_attempts", float64(s.store.persistAttempts.Load()))
	s.reg.Set("cache.entries", float64(entries))
	s.reg.Set("cache.bytes", float64(cacheBytes))
	snap := s.reg.Snapshot()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	metrics.WriteCounters(w, snap)
}

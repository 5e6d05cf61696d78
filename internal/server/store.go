package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"delorean"
	"delorean/internal/workload"
)

// Spec identifies the workload a recording was made from. Recordings do
// not serialize programs — replay regenerates them from the spec — so
// the spec is part of a stored recording's identity.
type Spec struct {
	Workload string `json:"workload"`
	Procs    int    `json:"procs"`
	Scale    int    `json:"scale"`
	Seed     uint64 `json:"seed"`
}

func (s Spec) String() string {
	return fmt.Sprintf("%s procs=%d scale=%d seed=%d", s.Workload, s.Procs, s.Scale, s.Seed)
}

// validate rejects specs Get would panic on, unknown names, and
// processor counts no recording can hold, before any workload
// generation runs.
func (s Spec) validate() error {
	if !workload.Known(s.Workload) {
		return fmt.Errorf("unknown workload %q", s.Workload)
	}
	if s.Procs <= 0 || s.Scale <= 0 {
		return fmt.Errorf("workload params must be positive: procs=%d scale=%d", s.Procs, s.Scale)
	}
	if s.Procs > delorean.MaxProcessors {
		return fmt.Errorf("procs=%d exceeds the limit of %d processors", s.Procs, delorean.MaxProcessors)
	}
	return nil
}

// instantiate regenerates the spec's programs (and device schedules).
// The spec must have passed validate.
func (s Spec) instantiate() *delorean.Workload {
	return delorean.NewWorkload(s.Workload, s.Procs, s.Scale, s.Seed)
}

// entry is one stored recording. rec is an index-only recording over the
// canonical v4 bytes: frame headers are parsed and CRC-checked, but the
// log payloads stay compressed until a replay (or describe) acquires the
// entry and materializes them. id/spec/rec/data/est are immutable after
// insertion; pins/resident/lastUse belong to the residency manager and
// are guarded by store.mu.
type entry struct {
	id   string
	spec Spec
	rec  *delorean.Recording
	data []byte
	// est is the recording's materialized-size estimate (decompressed
	// frame bytes), the unit the residency budget is accounted in. It is
	// always positive: the init-mem frame alone decodes to at least 4
	// bytes.
	est int64

	// Residency state, guarded by store.mu.
	pins     int   // acquisitions currently using the materialized form
	resident bool  // counted against the store budget
	lastUse  int64 // store.tick at last acquire, for LRU eviction

	// persistMu makes the write-through disk persist once-only under
	// concurrent puts of identical content.
	persistMu sync.Mutex
	// persisted reports whether the canonical bytes are durably on disk.
	// Atomic because a degraded entry can be healed by a later put of
	// the same content while other handlers describe it.
	persisted atomic.Bool

	// Cached describe response (LogBits needs materialized logs; caching
	// it keeps GET /v1/recordings/{id} from re-materializing a cold
	// entry on every call). Guarded by descMu.
	descMu    sync.Mutex
	descReady bool
	desc      recordingJSON
}

// primeDesc installs the describe payload if none is cached yet (upload
// and record handlers compute it from the eager recording they already
// decoded, so a fresh entry never pays a second materialization just to
// report log sizes).
func (e *entry) primeDesc(d recordingJSON) {
	e.descMu.Lock()
	if !e.descReady {
		e.desc, e.descReady = d, true
	}
	e.descMu.Unlock()
}

// cachedDesc returns the cached describe payload with the live persisted
// flag folded in (persistence can heal after the cache was primed).
func (e *entry) cachedDesc() (recordingJSON, bool) {
	e.descMu.Lock()
	defer e.descMu.Unlock()
	if !e.descReady {
		return recordingJSON{}, false
	}
	d := e.desc
	d.Persisted = e.persisted.Load()
	return d, true
}

// store is the content-addressed recording store: an in-memory map
// keyed by sha256(spec || canonical v4 bytes), write-through to a
// directory when one is configured (<id>.dlrn plus an <id>.json spec
// sidecar), reloaded on startup. Identical uploads deduplicate to the
// same id by construction.
//
// The store doubles as the residency manager: every stored recording
// always holds its canonical (compressed) bytes, but the decoded form
// is materialized on demand and counted against budget. acquire blocks
// until the entry fits — evicting least-recently-used idle entries back
// to canonical bytes if needed — and release lets eviction reclaim it.
type store struct {
	dir    string
	budget int64 // materialized-byte budget; <= 0 means unlimited

	mu   sync.Mutex
	cond *sync.Cond // signals released pins and evictions
	m    map[string]*entry

	// Residency accounting, guarded by mu.
	resident         int64 // sum of est over resident entries
	peak             int64 // high-water mark of resident
	tick             int64 // LRU clock
	materializations int64
	evictions        int64
	overcommits      int64

	// persistAttempts counts write-through persist executions (not
	// successes) — the dedup-upload test asserts identical concurrent
	// uploads persist exactly once.
	persistAttempts atomic.Int64

	// rename installs a persisted file; tests swap it to fail a persist
	// between its two renames.
	rename func(oldpath, newpath string) error
}

func newStore(dir string, budget int64) *store {
	st := &store{dir: dir, budget: budget, m: make(map[string]*entry), rename: os.Rename}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// storeStats is a consistent snapshot of the residency counters for the
// metrics surface.
type storeStats struct {
	recordings       int
	resident         int64
	peak             int64
	budget           int64
	materializations int64
	evictions        int64
	overcommits      int64
}

func (st *store) stats() storeStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return storeStats{
		recordings:       len(st.m),
		resident:         st.resident,
		peak:             st.peak,
		budget:           st.budget,
		materializations: st.materializations,
		evictions:        st.evictions,
		overcommits:      st.overcommits,
	}
}

// acquire pins e's materialized form, materializing it first if needed.
// It blocks (honoring ctx) until the entry fits the byte budget,
// evicting idle LRU entries to make room. Callers must release exactly
// once per successful acquire; the materialized logs are guaranteed to
// stay resident until then.
func (st *store) acquire(ctx context.Context, e *entry) error {
	// Wake waiters when the caller's request dies, so a full budget plus
	// a cancelled client cannot strand the queue. The Lock/Unlock pair
	// orders the broadcast after the waiter has entered cond.Wait — a
	// waiter between its ctx check and Wait holds st.mu, so the wakeup
	// cannot slip into that window and be missed.
	stop := context.AfterFunc(ctx, func() {
		st.mu.Lock()
		//lint:ignore SA2001 lock/unlock pairs the broadcast with waiters
		st.mu.Unlock()
		st.cond.Broadcast()
	})
	defer stop()

	st.mu.Lock()
	for !e.resident {
		if err := ctx.Err(); err != nil {
			st.mu.Unlock()
			return err
		}
		if st.budget <= 0 || st.resident+e.est <= st.budget {
			break
		}
		if st.resident == 0 {
			// The entry alone exceeds the whole budget and nothing else is
			// resident: materialize anyway — refusing forever would make the
			// budget a correctness knob instead of a memory ceiling.
			st.overcommits++
			break
		}
		if !st.evictOneLocked() {
			st.cond.Wait() // all resident entries are pinned; wait for a release
		}
	}
	if !e.resident {
		e.resident = true
		st.resident += e.est
		if st.resident > st.peak {
			st.peak = st.resident
		}
		st.materializations++
	}
	e.pins++
	st.tick++
	e.lastUse = st.tick
	st.mu.Unlock()

	// Decode outside the lock. Concurrent acquirers of the same entry
	// rendezvous inside Materialize (idempotent, internally locked), so
	// only one decodes.
	if err := e.rec.Materialize(0); err != nil {
		st.mu.Lock()
		e.pins--
		if e.resident && e.pins == 0 {
			// Nothing was decoded; stop charging the budget for it.
			e.resident = false
			st.resident -= e.est
		}
		st.mu.Unlock()
		st.cond.Broadcast()
		return err
	}
	return nil
}

// release unpins an acquired entry, making it evictable again.
func (st *store) release(e *entry) {
	st.mu.Lock()
	e.pins--
	st.mu.Unlock()
	st.cond.Broadcast()
}

// evictOneLocked drops the least-recently-used idle materialized entry
// back to its canonical bytes, reporting whether anything was evicted.
// Called with st.mu held.
func (st *store) evictOneLocked() bool {
	var victim *entry
	for _, e := range st.m {
		if e.resident && e.pins == 0 && (victim == nil || e.lastUse < victim.lastUse) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	victim.rec.Release()
	victim.resident = false
	st.resident -= victim.est
	st.evictions++
	return true
}

// specExt and dataExt are the sidecar/file extensions under dir.
const (
	dataExt = ".dlrn"
	specExt = ".json"
)

// canonicalize re-encodes a recording to its canonical v4 byte form.
// An upload is a v4 container, but its frame compression and sharding
// need not match what this build writes; addressing the canonical bytes
// makes the id independent of the uploaded encoding.
func canonicalize(rec *delorean.Recording) ([]byte, error) {
	var buf bytes.Buffer
	if err := rec.SaveParallel(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func recordingID(spec Spec, canonical []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", spec)
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// put stores the recording, reporting its entry, whether it was new, and
// any write-through persist failure. rec should be an index-only
// recording over canonical (see delorean.IndexRecording) so a stored
// entry starts cold. The in-memory insert is authoritative: a persist
// failure degrades durability, never availability — the entry stays in
// the map (marked unpersisted, so the client learns the recording will
// not survive a restart) and a later put of the same content retries the
// disk write. The disk write happens outside the store lock under the
// entry's persistMu, so concurrent puts of identical content write the
// files exactly once.
func (st *store) put(rec *delorean.Recording, spec Spec, canonical []byte) (e *entry, created bool, persistErr error) {
	id := recordingID(spec, canonical)
	st.mu.Lock()
	e, exists := st.m[id]
	if !exists {
		e = &entry{id: id, spec: spec, rec: rec, data: canonical, est: rec.MaterializedSizeEstimate()}
		st.m[id] = e
	}
	st.mu.Unlock()
	if st.dir == "" || e.persisted.Load() {
		return e, !exists, nil
	}
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	if e.persisted.Load() { // a racing put persisted it first
		return e, !exists, nil
	}
	st.persistAttempts.Add(1)
	if err := st.persist(id, spec, canonical); err != nil {
		return e, !exists, err
	}
	e.persisted.Store(true)
	return e, !exists, nil
}

// persist writes the spec sidecar and then the container atomically and
// durably: each file is written and fsynced under a unique temp name,
// then renamed into place, and the directory is fsynced once after both
// renames. A crash can never install a torn file, and once persist
// returns nil both files survive power loss, so "persisted": true holds.
// The container goes last, so a persist that fails or crashes part way
// leaves only temp files or a sidecar without its container; loadDir
// removes both at the next boot.
func (st *store) persist(id string, spec Spec, canonical []byte) error {
	sp, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{id + specExt, sp}, {id + dataExt, canonical}} {
		if err := st.writeFileAtomic(f.name, f.data); err != nil {
			return err
		}
	}
	return syncDir(st.dir)
}

func (st *store) writeFileAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(st.dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return st.rename(tmp.Name(), filepath.Join(st.dir, name))
}

// syncDir fsyncs a directory so the renames into it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (st *store) get(id string) (*entry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	return e, ok
}

// ids returns the stored recording ids, sorted.
func (st *store) ids() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.m))
	for id := range st.m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// loadDir restores every <id>.dlrn/<id>.json pair under dir into the
// in-memory map. Files that fail to index are skipped with an error in
// the returned slice — a damaged cache entry must not keep the server
// from booting. What a persist interrupted part way leaves behind — temp
// files, and a sidecar whose container was never installed — is removed
// first; nothing ever reads it.
func (st *store) loadDir() []error {
	if st.dir == "" {
		return nil
	}
	var errs []error
	stray, err := filepath.Glob(filepath.Join(st.dir, "*.tmp*"))
	if err != nil {
		return []error{err}
	}
	specs, err := filepath.Glob(filepath.Join(st.dir, "*"+specExt))
	if err != nil {
		return []error{err}
	}
	for _, name := range specs {
		if _, err := os.Stat(strings.TrimSuffix(name, specExt) + dataExt); errors.Is(err, fs.ErrNotExist) {
			stray = append(stray, name)
		}
	}
	for _, name := range stray {
		if err := os.Remove(name); err != nil {
			errs = append(errs, err)
		}
	}
	names, err := filepath.Glob(filepath.Join(st.dir, "*"+dataExt))
	if err != nil {
		return []error{err}
	}
	sort.Strings(names)
	for _, name := range names {
		id := strings.TrimSuffix(filepath.Base(name), dataExt)
		if err := st.loadOne(id); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
		}
	}
	return errs
}

// loadOne restores one persisted recording by indexing it: frame
// headers are parsed and CRC-verified (so on-disk bit rot in any
// payload is caught at boot), but nothing is decompressed until first
// use. Startup cost is therefore proportional to store size only
// through a single CRC sweep, not a full decode.
func (st *store) loadOne(id string) error {
	sp, err := os.ReadFile(filepath.Join(st.dir, id+specExt))
	if err != nil {
		return err
	}
	var spec Spec
	if err := json.Unmarshal(sp, &spec); err != nil {
		return fmt.Errorf("spec sidecar: %w", err)
	}
	if err := spec.validate(); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(st.dir, id+dataExt))
	if err != nil {
		return err
	}
	if got := recordingID(spec, data); got != id {
		return fmt.Errorf("content hash %s does not match filename", got)
	}
	rec, err := delorean.IndexRecording(data, delorean.Config{}, spec.instantiate())
	if err != nil {
		return err
	}
	e := &entry{id: id, spec: spec, rec: rec, data: data, est: rec.MaterializedSizeEstimate()}
	e.persisted.Store(true) // it was just read from disk
	st.mu.Lock()
	if _, exists := st.m[id]; !exists {
		st.m[id] = e
	}
	st.mu.Unlock()
	return nil
}

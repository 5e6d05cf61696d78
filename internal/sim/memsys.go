package sim

import (
	"sync"

	"delorean/internal/cache"
	"delorean/internal/flat"
)

// MemSys is the timing side of the memory hierarchy: per-processor L1
// tag arrays, a shared inclusive L2, and a directory tracking sharers and
// the exclusive owner of each line. Functional values live elsewhere
// (internal/mem); MemSys answers "how long does this access take" and
// keeps coherence state so that cross-processor sharing produces the
// misses and upgrades that make SC/RC/chunked timing differ.
//
// Two families of access paths coexist:
//
//   - Load/Store serve the classic SC/RC/TSO machines. They mutate shared
//     structures (L2 LRU, directory) eagerly.
//
//   - SpecLoad/SpecStore serve the chunked engine's speculative execution.
//     They touch only processor p's L1 and the counters; shared L2 and
//     directory state is probed read-only, and the mutation each access
//     implies is returned as a FillKind for the caller to journal and
//     apply at chunk commit (ApplyFill). This confines speculative side
//     effects to the core, as in the BulkSC hardware: speculative state
//     lives in L1, and L2 and directory learn of it at commit. Recordings
//     depend on this deferral, so a squashed chunk's accesses never touch
//     shared state.
type MemSys struct {
	cfg  *Config
	geom geometry
	l1   []*cache.Cache
	l2   *cache.Cache

	// dir is the directory, one entry per line: the low 32 bits are the
	// bitmask of processors whose L1 may hold the line, the high bits the
	// processor holding it exclusively plus one (0 if none). An entry
	// vanishes when both parts are empty.
	dir flat.Table

	// Access counters, summed over both path families.
	L1Hits, L2Hits, MemAccesses, C2CTransfers, Upgrades uint64
}

// FillKind classifies the shared-state transition a speculative access
// performs, deferred to commit time via ApplyFill. The access itself only
// fills the issuing processor's L1.
type FillKind uint8

const (
	// FillNone: L1 hit, nothing to apply.
	FillNone FillKind = iota
	// FillL2: the line was supplied by the shared L2 (LRU touch at commit).
	FillL2
	// FillMem: the line came from memory (L2 install at commit).
	FillMem
	// FillC2C: the line was forwarded cache-to-cache from a dirty owner
	// (owner downgrade + L2 install at commit).
	FillC2C
	// FillUpgrade: the processor held the line shared and upgraded it for
	// a store (directory transaction only).
	FillUpgrade
)

// newMemSys builds a cold hierarchy for cfg. Simulations get theirs
// through AcquireMemSys.
func newMemSys(cfg *Config) *MemSys {
	ms := &MemSys{
		cfg:  cfg,
		geom: geometryOf(cfg),
		l2:   cache.New(cfg.L2Bytes, cfg.L2Ways),
	}
	for i := 0; i < cfg.NProcs; i++ {
		ms.l1 = append(ms.l1, cache.New(cfg.L1Bytes, cfg.L1Ways))
	}
	return ms
}

// geometry is the part of a Config a hierarchy's structure depends on.
// Latencies are not part of it: reuse re-binds them.
type geometry struct {
	nprocs, l1Bytes, l1Ways, l2Bytes, l2Ways int
}

func geometryOf(cfg *Config) geometry {
	return geometry{cfg.NProcs, cfg.L1Bytes, cfg.L1Ways, cfg.L2Bytes, cfg.L2Ways}
}

// hierarchyPools holds released hierarchies: a *sync.Pool per geometry.
var hierarchyPools sync.Map

// AcquireMemSys returns a cold hierarchy for cfg, reusing a released one
// of the same geometry when the pool has one. Building a hierarchy
// allocates and zeroes the full L2 tag array (~600 KB at the default
// 8 MB, 8-way geometry), which dominated short simulations; reuse is
// observation-equivalent to newMemSys (see reset). Every simulation
// (Machine.Run, bulksc.Engine.Run) acquires one per run and hands it
// back with ReleaseMemSys when the run ends, so no hierarchy outlives
// its run. Safe for concurrent use.
func AcquireMemSys(cfg *Config) *MemSys {
	if p, ok := hierarchyPools.Load(geometryOf(cfg)); ok {
		if ms, _ := p.(*sync.Pool).Get().(*MemSys); ms != nil {
			ms.reset(cfg)
			return ms
		}
	}
	return newMemSys(cfg)
}

// ReleaseMemSys returns ms to the pool. The caller must not use ms
// afterwards. Safe for concurrent use.
func ReleaseMemSys(ms *MemSys) {
	ms.cfg = nil // a pooled hierarchy must not pin its last run's Config
	p, _ := hierarchyPools.LoadOrStore(ms.geom, new(sync.Pool))
	p.(*sync.Pool).Put(ms)
}

// reset returns the hierarchy to its post-construction state for reuse
// under cfg: cold caches, empty directory, zeroed counters, latencies
// re-bound to cfg. It must be equivalent to newMemSys(cfg); cfg has the
// geometry the hierarchy was built with (the pool is keyed by it).
func (ms *MemSys) reset(cfg *Config) {
	ms.cfg = cfg
	ms.l2.Flush()
	for _, c := range ms.l1 {
		c.Flush()
	}
	ms.dir.Reset()
	ms.L1Hits, ms.L2Hits, ms.MemAccesses, ms.C2CTransfers, ms.Upgrades = 0, 0, 0, 0, 0
}

// L1 exposes processor p's L1 geometry (the chunk engine needs SetOf/Ways
// for overflow accounting).
func (ms *MemSys) L1(p int) *cache.Cache { return ms.l1[p] }

// owner returns the processor holding line exclusively, if any.
func (ms *MemSys) owner(line uint32) (int, bool) {
	v, _ := ms.dir.Get(line)
	o := int(v >> 32)
	return o - 1, o != 0
}

// setDir stores line's directory entry, dropping it when empty.
func (ms *MemSys) setDir(line uint32, v uint64) {
	if v == 0 {
		ms.dir.Delete(line)
		return
	}
	e, _ := ms.dir.Ptr(line)
	*e = v
}

func (ms *MemSys) setOwner(line uint32, p int) {
	e, _ := ms.dir.Ptr(line)
	*e = *e&0xffffffff | uint64(p+1)<<32
}

func (ms *MemSys) clearOwner(line uint32) {
	v, _ := ms.dir.Get(line)
	ms.setDir(line, v&0xffffffff)
}

func (ms *MemSys) addSharer(line uint32, p int) {
	e, _ := ms.dir.Ptr(line)
	*e |= 1 << uint(p)
}

func (ms *MemSys) dropSharer(line uint32, p int) {
	v, _ := ms.dir.Get(line)
	v &^= 1 << uint(p)
	if int(v>>32) == p+1 {
		v &= 0xffffffff
	}
	ms.setDir(line, v)
}

func (ms *MemSys) installL1(p int, line uint32) {
	if evicted, did := ms.l1[p].Install(line); did {
		ms.dropSharer(evicted, p)
	}
	ms.addSharer(line, p)
}

// Load returns the round-trip latency of a load by processor p to line,
// updating cache and directory state.
func (ms *MemSys) Load(p int, line uint32) uint64 {
	if ms.l1[p].Access(line) {
		ms.L1Hits++
		return ms.cfg.L1Lat
	}
	// L1 miss. If another processor owns the line dirty, it is forwarded
	// cache-to-cache through the directory and downgraded to shared.
	if o, ok := ms.owner(line); ok && o != p {
		ms.clearOwner(line)
		ms.C2CTransfers++
		ms.l2.Install(line)
		ms.installL1(p, line)
		return ms.cfg.L2Lat
	}
	if ms.l2.Access(line) {
		ms.L2Hits++
		ms.installL1(p, line)
		return ms.cfg.L2Lat
	}
	ms.MemAccesses++
	ms.installL2(line)
	ms.installL1(p, line)
	return ms.cfg.MemLat
}

// Store returns the latency for processor p to obtain line exclusively
// and invalidates all other sharers (a committing write or an SC/RC
// store).
func (ms *MemSys) Store(p int, line uint32) uint64 {
	lat := ms.exclusiveLat(p, line)
	ms.invalidateOthers(p, line)
	ms.setOwner(line, p)
	ms.installL1(p, line)
	return lat
}

// installL1Spec fills line into p's L1 without touching the shared
// directory: sharer bookkeeping for speculative fills happens at commit
// (ApplyFill), so a stale sharer bit from a speculatively evicted line is
// possible and self-heals at the next invalidation touching it.
func (ms *MemSys) installL1Spec(p int, line uint32) {
	ms.l1[p].Install(line)
}

// SpecLoad returns the latency of a speculative (chunk) load by processor
// p, filling only p's L1. Shared L2 and directory state is read, not
// written; the returned FillKind tells the caller which shared-state
// transition to journal and replay at the chunk's commit via ApplyFill.
func (ms *MemSys) SpecLoad(p int, line uint32) (uint64, FillKind) {
	if ms.l1[p].Access(line) {
		ms.L1Hits++
		return ms.cfg.L1Lat, FillNone
	}
	// L1 miss. A dirty remote owner forwards cache-to-cache through the
	// directory; the downgrade becomes visible at commit.
	if o, ok := ms.owner(line); ok && o != p {
		ms.C2CTransfers++
		ms.installL1Spec(p, line)
		return ms.cfg.L2Lat, FillC2C
	}
	if ms.l2.Contains(line) {
		ms.L2Hits++
		ms.installL1Spec(p, line)
		return ms.cfg.L2Lat, FillL2
	}
	ms.MemAccesses++
	ms.installL1Spec(p, line)
	return ms.cfg.MemLat, FillMem
}

// SpecStore returns the latency for processor p to prefetch line for a
// speculative (chunk) store. The line is brought into p's L1 but other
// copies are NOT invalidated: BulkSC makes speculative updates visible
// only at commit. Like SpecLoad, shared state is probed read-only and the
// implied transition is returned for commit-time application.
func (ms *MemSys) SpecStore(p int, line uint32) (uint64, FillKind) {
	if ms.l1[p].Access(line) {
		if o, ok := ms.owner(line); ok && o == p {
			ms.L1Hits++
			return ms.cfg.L1Lat, FillNone
		}
		// Present but shared: upgrade through the directory.
		ms.Upgrades++
		return ms.cfg.L2Lat, FillUpgrade
	}
	if o, ok := ms.owner(line); ok && o != p {
		ms.C2CTransfers++
		ms.installL1Spec(p, line)
		return ms.cfg.L2Lat, FillC2C
	}
	if ms.l2.Contains(line) {
		ms.L2Hits++
		ms.installL1Spec(p, line)
		return ms.cfg.L2Lat, FillL2
	}
	ms.MemAccesses++
	ms.installL1Spec(p, line)
	return ms.cfg.MemLat, FillMem
}

// ApplyFill replays, at commit time, the shared-state transition a
// speculative access by processor p deferred. Called in the chunk's
// access order, when the chunk commits; a squashed chunk's fills are
// simply dropped (its speculative pollution of shared state is not
// modeled, matching hardware where L2/directory learn of a chunk only
// when it commits).
func (ms *MemSys) ApplyFill(p int, line uint32, k FillKind) {
	switch k {
	case FillC2C:
		if o, ok := ms.owner(line); ok && o != p {
			ms.clearOwner(line)
		}
		ms.l2.Install(line)
	case FillL2:
		ms.l2.Access(line)
	case FillMem:
		ms.installL2(line)
	case FillUpgrade:
		// Directory transaction only; sharer state is refreshed below.
	}
	if ms.l1[p].Contains(line) {
		ms.addSharer(line, p)
	}
}

// CommitLine makes processor p's speculative write to line globally
// visible: all other sharers are invalidated and p becomes owner. The
// latency is folded into the commit operation, not charged per line.
func (ms *MemSys) CommitLine(p int, line uint32) {
	ms.invalidateOthers(p, line)
	ms.setOwner(line, p)
	ms.l2.Install(line)
	ms.installL1(p, line)
}

// DMAWrite models a device write: every cached copy is invalidated and
// the line lands in L2.
func (ms *MemSys) DMAWrite(line uint32) {
	for q := 0; q < ms.cfg.NProcs; q++ {
		if ms.l1[q].Invalidate(line) {
			ms.dropSharer(line, q)
		}
	}
	ms.clearOwner(line)
	ms.l2.Install(line)
}

func (ms *MemSys) exclusiveLat(p int, line uint32) uint64 {
	if ms.l1[p].Access(line) {
		if o, ok := ms.owner(line); ok && o == p {
			ms.L1Hits++
			return ms.cfg.L1Lat
		}
		// Present but shared: upgrade through the directory.
		ms.Upgrades++
		return ms.cfg.L2Lat
	}
	if o, ok := ms.owner(line); ok && o != p {
		ms.C2CTransfers++
		return ms.cfg.L2Lat
	}
	if ms.l2.Access(line) {
		ms.L2Hits++
		return ms.cfg.L2Lat
	}
	ms.MemAccesses++
	ms.installL2(line)
	return ms.cfg.MemLat
}

func (ms *MemSys) invalidateOthers(p int, line uint32) {
	v, _ := ms.dir.Get(line)
	mask := uint32(v)
	for q := 0; q < ms.cfg.NProcs; q++ {
		if q != p && mask&(1<<uint(q)) != 0 {
			ms.l1[q].Invalidate(line)
			ms.dropSharer(line, q)
		}
	}
}

func (ms *MemSys) installL2(line uint32) {
	if evicted, did := ms.l2.Install(line); did {
		// Inclusive L2: back-invalidate the victim from every L1.
		for q := 0; q < ms.cfg.NProcs; q++ {
			if ms.l1[q].Invalidate(evicted) {
				ms.dropSharer(evicted, q)
			}
		}
		ms.clearOwner(evicted)
	}
}

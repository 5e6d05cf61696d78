package sim

import (
	"testing"

	"delorean/internal/workload"
)

func msCfg(n int) Config {
	c := Default8()
	c.NProcs = n
	return c
}

func TestLoadMissHitProgression(t *testing.T) {
	cfg := msCfg(2)
	ms := newMemSys(&cfg)
	if lat := ms.Load(0, 100); lat != cfg.MemLat {
		t.Fatalf("cold load lat = %d, want %d", lat, cfg.MemLat)
	}
	if lat := ms.Load(0, 100); lat != cfg.L1Lat {
		t.Fatalf("second load lat = %d, want L1 hit %d", lat, cfg.L1Lat)
	}
	// Another processor: misses L1, hits L2.
	if lat := ms.Load(1, 100); lat != cfg.L2Lat {
		t.Fatalf("peer load lat = %d, want L2 %d", lat, cfg.L2Lat)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	cfg := msCfg(2)
	ms := newMemSys(&cfg)
	ms.Load(0, 100)
	ms.Load(1, 100)
	ms.Store(0, 100)
	// Proc 1's copy must be gone: its next load is not an L1 hit.
	if lat := ms.Load(1, 100); lat == cfg.L1Lat {
		t.Fatal("store did not invalidate the peer's copy")
	}
}

// TestDirectoryAtTheProcessorLimit: the highest processor's sharer bit
// stays out of the owner field, so a remote store invalidates its copy
// and each access leaves the right owner; one more processor is refused.
func TestDirectoryAtTheProcessorLimit(t *testing.T) {
	cfg := msCfg(MaxProcs)
	ms := newMemSys(&cfg)
	const line, top = 100, MaxProcs - 1
	wantOwner := func(step string, want int) {
		t.Helper()
		o, ok := ms.owner(line)
		if !ok {
			o = -1
		}
		if o != want {
			t.Fatalf("after %s the owner is %d, want %d", step, o, want)
		}
	}
	ms.Load(top, line)
	wantOwner("a load by the top processor", -1)
	ms.Store(0, line)
	wantOwner("a store by processor 0", 0)
	if ms.l1[top].Contains(line) {
		t.Fatal("a store by processor 0 left the top processor's copy valid")
	}
	ms.Store(top, line)
	wantOwner("a store by the top processor", top)
	if ms.l1[0].Contains(line) {
		t.Fatal("a store by the top processor left processor 0's copy valid")
	}
	ms.Load(1, line)
	wantOwner("a load by processor 1", -1)

	defer func() {
		if recover() == nil {
			t.Fatalf("a hierarchy of %d processors was built", MaxProcs+1)
		}
	}()
	big := msCfg(MaxProcs + 1)
	newMemSys(&big)
}

func TestDirtyForwardingCacheToCache(t *testing.T) {
	cfg := msCfg(2)
	ms := newMemSys(&cfg)
	ms.Store(0, 200)
	before := ms.C2CTransfers
	if lat := ms.Load(1, 200); lat != cfg.L2Lat {
		t.Fatalf("dirty remote load lat = %d, want %d", lat, cfg.L2Lat)
	}
	if ms.C2CTransfers != before+1 {
		t.Fatal("cache-to-cache transfer not counted")
	}
}

func TestUpgradeOnSharedStore(t *testing.T) {
	cfg := msCfg(2)
	ms := newMemSys(&cfg)
	ms.Load(0, 300)
	ms.Load(1, 300)
	before := ms.Upgrades
	if lat := ms.Store(0, 300); lat != cfg.L2Lat {
		t.Fatalf("upgrade lat = %d, want %d", lat, cfg.L2Lat)
	}
	if ms.Upgrades != before+1 {
		t.Fatal("upgrade not counted")
	}
}

func TestSpecStoreDoesNotInvalidate(t *testing.T) {
	cfg := msCfg(2)
	ms := newMemSys(&cfg)
	ms.Load(1, 400)
	ms.SpecStore(0, 400)
	// Speculative data is invisible until commit: proc 1 still hits.
	if lat := ms.Load(1, 400); lat != cfg.L1Lat {
		t.Fatal("speculative store invalidated a peer copy before commit")
	}
	ms.CommitLine(0, 400)
	if lat := ms.Load(1, 400); lat == cfg.L1Lat {
		t.Fatal("commit did not invalidate the peer copy")
	}
}

func TestDMAWriteInvalidatesEveryone(t *testing.T) {
	cfg := msCfg(3)
	ms := newMemSys(&cfg)
	for p := 0; p < 3; p++ {
		ms.Load(p, 500)
	}
	ms.DMAWrite(500)
	for p := 0; p < 3; p++ {
		if lat := ms.Load(p, 500); lat == cfg.L1Lat {
			t.Fatalf("proc %d still hits after DMA write", p)
		}
		break // first load repopulates L2 state; checking one suffices
	}
}

func TestL1EvictionDropsSharerState(t *testing.T) {
	cfg := msCfg(1)
	ms := newMemSys(&cfg)
	// Fill one L1 set past associativity: lines mapping to set 0.
	numSets := uint32(cfg.L1Bytes / (32 * cfg.L1Ways))
	for i := uint32(0); i <= uint32(cfg.L1Ways); i++ {
		ms.Load(0, i*numSets)
	}
	// The first line was evicted: loading it again is not an L1 hit.
	if lat := ms.Load(0, 0); lat == cfg.L1Lat {
		t.Fatal("evicted line still hits in L1")
	}
}

func TestSpecLoadKindsAndDeferredFills(t *testing.T) {
	cfg := msCfg(3)
	ms := newMemSys(&cfg)

	// Cold speculative load: memory fill, not yet visible to peers.
	lat, kind := ms.SpecLoad(0, 700)
	if lat != cfg.MemLat || kind != FillMem {
		t.Fatalf("cold SpecLoad = (%d, %v), want (%d, FillMem)", lat, kind, cfg.MemLat)
	}
	// The fill is journaled, not applied: a peer's speculative load is
	// still a cold miss against the shared state.
	if lat, kind := ms.SpecLoad(1, 700); lat != cfg.MemLat || kind != FillMem {
		t.Fatalf("peer SpecLoad before commit = (%d, %v), want cold miss", lat, kind)
	}
	// The requester itself hits its own L1 (the private install is
	// immediate).
	if lat, kind := ms.SpecLoad(0, 700); lat != cfg.L1Lat || kind != FillNone {
		t.Fatalf("requester re-SpecLoad = (%d, %v), want L1 hit", lat, kind)
	}

	// After commit-time replay of the fill, a processor whose own L1 is
	// cold sees an L2 hit (proc 1 already self-installed speculatively,
	// so probe with proc 2).
	ms.ApplyFill(0, 700, FillMem)
	if lat, kind := ms.SpecLoad(2, 701); lat != cfg.MemLat || kind != FillMem {
		t.Fatalf("unrelated line = (%d, %v)", lat, kind)
	}
	if lat, kind := ms.SpecLoad(2, 700); lat != cfg.L2Lat || kind != FillL2 {
		t.Fatalf("peer SpecLoad after ApplyFill = (%d, %v), want L2 hit", lat, kind)
	}
}

func TestSpecStoreOwnershipKinds(t *testing.T) {
	cfg := msCfg(2)
	ms := newMemSys(&cfg)

	// Committed path establishes proc 0 as dirty owner.
	ms.Load(0, 800)
	ms.Store(0, 800)
	ms.CommitLine(0, 800)

	// A peer's speculative store on a dirty-owned line is a cache-to-
	// cache transfer; replaying the fill moves the line to L2.
	lat, kind := ms.SpecStore(1, 800)
	if lat != cfg.L2Lat || kind != FillC2C {
		t.Fatalf("peer SpecStore = (%d, %v), want (L2Lat, FillC2C)", lat, kind)
	}
	before := ms.C2CTransfers
	ms.ApplyFill(1, 800, FillC2C)
	if got := ms.C2CTransfers; got != before {
		t.Fatalf("ApplyFill changed counters: %d -> %d", before, got)
	}

	// Shared line: a speculative store by one of the sharers upgrades.
	ms.SpecLoad(0, 900)
	ms.ApplyFill(0, 900, FillMem)
	ms.SpecLoad(1, 900)
	ms.ApplyFill(1, 900, FillL2)
	if lat, kind := ms.SpecStore(0, 900); lat != cfg.L2Lat || kind != FillUpgrade {
		t.Fatalf("shared SpecStore = (%d, %v), want (L2Lat, FillUpgrade)", lat, kind)
	}
}

func TestSpecCountersPerProcessor(t *testing.T) {
	cfg := msCfg(3)
	ms := newMemSys(&cfg)
	ms.SpecLoad(0, 1000) // mem access
	ms.SpecLoad(0, 1000) // L1 hit
	ms.SpecLoad(2, 1001) // mem access
	if got := ms.MemAccesses; got != 2 {
		t.Fatalf("MemAccesses = %d, want 2", got)
	}
	if got := ms.L1Hits; got != 1 {
		t.Fatalf("L1Hits = %d, want 1", got)
	}
}

// A released hierarchy holds tag storage for the sets its run touched,
// not for every set: after a quick-scale run at the paper's geometry,
// each cache's block pool is at most twice its touched sets' blocks and
// the empty block (or the pool's 64-block start), and the L2, of which
// the run touches a fraction, holds far less than a dense tag array.
func TestReleasedHierarchyTagStorage(t *testing.T) {
	cfg := msCfg(4)
	cfg.L2Bytes = 4 << 20 // a geometry no other test uses: the run builds a fresh hierarchy
	w := workload.Get("barnes", workload.Params{NProcs: 4, Scale: 8_000, Seed: 1})
	m := NewMachine(cfg, RC, w.Progs, w.InitMem(), w.Devs)
	if st := m.Run(); !st.Converged {
		t.Fatalf("run did not converge: %+v", st)
	}
	ms, ok := hierarchies.Get()
	if !ok || ms.geom != geometryOf(&cfg) {
		t.Fatal("the run's hierarchy is not on the free list")
	}
	defer ReleaseMemSys(ms)
	uses := ms.tagUses()
	for i, u := range uses {
		block := 4 * (u.ways + 1)
		index := 2 * u.numSets
		if u.sets == 0 || u.sets > u.numSets {
			t.Fatalf("cache %d: %d of %d sets hold storage", i, u.sets, u.numSets)
		}
		if limit := index + block*min(max(2*(u.sets+1), 64), u.numSets+1); u.bytes > limit {
			t.Errorf("cache %d: %d bytes for %d touched sets, want at most %d", i, u.bytes, u.sets, limit)
		}
	}
	l2 := uses[len(uses)-1]
	if dense := 4 * (l2.ways + 1) * l2.numSets; l2.bytes > dense/4 {
		t.Errorf("L2 holds %d bytes for %d of %d sets; a dense store is %d", l2.bytes, l2.sets, l2.numSets, dense)
	}
	t.Logf("L2: %d of %d sets, %d bytes", l2.sets, l2.numSets, l2.bytes)
}

// A hierarchy with a zero-cycle latency is refused: CoreTiming's reap
// relies on every access completing after the cycle it issues in.
func TestZeroLatencyRefused(t *testing.T) {
	for i := 0; i < 3; i++ {
		cfg := msCfg(2)
		*[]*uint64{&cfg.L1Lat, &cfg.L2Lat, &cfg.MemLat}[i] = 0
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("latencies %d/%d/%d: AcquireMemSys did not panic", cfg.L1Lat, cfg.L2Lat, cfg.MemLat)
				}
			}()
			AcquireMemSys(&cfg)
		}()
	}
}

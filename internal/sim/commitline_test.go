package sim

import (
	"reflect"
	"testing"

	"delorean/internal/isa"
	"delorean/internal/rng"
)

// commitLineByHelpers is CommitLine as four directory helpers make it:
// invalidate the other sharers, make p the owner, install the line in
// L2, and install it in p's L1 as a sharer. CommitLine folds the
// directory updates into one entry access; it must leave every cache
// and directory entry as this does.
func commitLineByHelpers(ms *MemSys, p int, line uint32) {
	ms.invalidateOthers(p, line)
	ms.setOwner(line, p)
	ms.l2.Install(line)
	ms.installL1(p, line)
}

// dirEntries returns ms's directory as a map.
func dirEntries(ms *MemSys) map[uint32]uint64 {
	m := map[uint32]uint64{}
	ms.dir.Each(func(k uint32, v uint64) { m[k] = v })
	return m
}

// TestCommitLineMatchesHelpers drives two hierarchies through one
// random sequence of loads, stores, speculative accesses with their
// commit-time fills, DMA writes and line commits, committing through
// CommitLine in one and commitLineByHelpers in the other, and compares
// every directory entry, every L1 and the L2 after each step. The
// caches are small and the lines few, so installs evict and lines are
// shared, owned and invalidated often.
func TestCommitLineMatchesHelpers(t *testing.T) {
	for _, nprocs := range []int{2, 4, MaxProcs} {
		cfg := Default8()
		cfg.NProcs = nprocs
		cfg.L1Bytes, cfg.L1Ways = 4*2*isa.LineBytes, 2
		cfg.L2Bytes, cfg.L2Ways = 16*4*isa.LineBytes, 4
		folded, helpers := newMemSys(&cfg), newMemSys(&cfg)
		r := rng.New(uint64(nprocs))
		commits := 0
		for step := 0; step < 8_000; step++ {
			p := r.Intn(nprocs)
			line := uint32(r.Intn(96))
			switch op := r.Intn(6); op {
			case 0:
				folded.Load(p, line)
				helpers.Load(p, line)
			case 1:
				folded.Store(p, line)
				helpers.Store(p, line)
			case 2:
				_, k := folded.SpecLoad(p, line)
				helpers.SpecLoad(p, line)
				folded.ApplyFill(p, line, k)
				helpers.ApplyFill(p, line, k)
			case 3:
				_, k := folded.SpecStore(p, line)
				helpers.SpecStore(p, line)
				folded.ApplyFill(p, line, k)
				helpers.ApplyFill(p, line, k)
			case 4:
				folded.DMAWrite(line)
				helpers.DMAWrite(line)
			case 5:
				folded.CommitLine(p, line)
				commitLineByHelpers(helpers, p, line)
				commits++
			}
			if !reflect.DeepEqual(dirEntries(folded), dirEntries(helpers)) {
				t.Fatalf("%d processors, step %d: directories differ\n folded  %v\n helpers %v",
					nprocs, step, dirEntries(folded), dirEntries(helpers))
			}
			if !reflect.DeepEqual(folded.l1, helpers.l1) || !reflect.DeepEqual(folded.l2, helpers.l2) {
				t.Fatalf("%d processors, step %d: caches differ", nprocs, step)
			}
		}
		if folded.L1Hits != helpers.L1Hits || folded.L2Hits != helpers.L2Hits ||
			folded.MemAccesses != helpers.MemAccesses || folded.C2CTransfers != helpers.C2CTransfers ||
			folded.Upgrades != helpers.Upgrades {
			t.Fatalf("%d processors: access counters differ", nprocs)
		}
		if commits == 0 {
			t.Fatal("no line committed")
		}
	}
}

package sim

// SetStepSpins turns spin skipping off (true) or back on (false) in both
// machines, this package's and bulksc's.
func SetStepSpins(step bool) { stepSpins.Store(step) }

// CountSpinSkips turns counting skipped spin iterations on or off.
func CountSpinSkips(on bool) { countSpins.Store(on) }

// SpinSkips returns how many spin iterations both machines have skipped
// while counting was on, so far in this process.
func SpinSkips() uint64 { return spinSkips.Load() }

// tagUse is one cache's tag store: how many sets hold storage, the
// bytes the store holds, and the cache's geometry.
type tagUse struct{ sets, bytes, numSets, ways int }

// tagUses returns the tag stores of ms's caches, the L1s then the L2.
func (ms *MemSys) tagUses() []tagUse {
	var u []tagUse
	for _, c := range append(ms.l1[:len(ms.l1):len(ms.l1)], ms.l2) {
		sets, bytes := c.Storage()
		u = append(u, tagUse{sets, bytes, c.NumSets(), c.Ways()})
	}
	return u
}

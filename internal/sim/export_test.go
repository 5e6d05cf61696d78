package sim

// SetStepSpins turns spin skipping off (true) or back on (false) in both
// machines, this package's and bulksc's.
func SetStepSpins(step bool) { stepSpins.Store(step) }

// CountSpinSkips turns counting skipped spin iterations on or off.
func CountSpinSkips(on bool) { countSpins.Store(on) }

// SpinSkips returns how many spin iterations both machines have skipped
// while counting was on, so far in this process.
func SpinSkips() uint64 { return spinSkips.Load() }

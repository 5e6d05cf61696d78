package diffcheck

import "testing"

// TestTracingObservationOnly is the observability oracle: recordings,
// replays and stats must be byte-identical with tracing on or off, and
// two traced runs must capture the same timeline and counters.
func TestTracingObservationOnly(t *testing.T) {
	opts := DefaultOptions()
	seeds := []uint64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		rep := CheckTracing(seed, opts)
		if !rep.OK() {
			t.Errorf("seed %d:", seed)
			for _, f := range rep.Failures {
				t.Errorf("  %s", f)
			}
		}
		if rep.Checks == 0 {
			t.Errorf("seed %d: no checks ran", seed)
		}
	}
}

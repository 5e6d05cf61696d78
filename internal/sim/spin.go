package sim

import (
	"math"
	"sync/atomic"

	"delorean/internal/isa"
)

// Spin-wait skipping. The workloads' barrier and lock waits are
// two-instruction loops (isa.Program.SpinLoads): a load and a branch back
// to it. Simulating every iteration is most of the work in barrier-bound
// kernels, yet once a waiting core has settled, each iteration repeats the
// last one exactly: the load hits in L1 at the same address, reads the same
// value, and leaves the core's timing state as it found it, moved forward
// by the same number of cycles. Machine here then advances every waiting
// core to the next action of anything else — a non-waiting core, a
// device, the instruction budget — in one step, with the same final state
// as stepping. bulksc.Engine, whose chunks hide each core's stores and
// fills from the others until commit, parks a waiting core and applies
// its iterations lazily, up to the next global event.
//
// Spin decides when a core has settled. Horizon bounds how far a waiting
// core may go: Machine skips up to the next action of any other core or
// device, and limitSpins keeps a skip within the instruction budget;
// bulksc.Engine catches parked cores up to its next global event.

// stepSpins turns skipping off in both machines, so that every iteration
// is simulated one by one. It is the reference the differential tests
// compare skipping against; only they set it (export_test.go).
var stepSpins atomic.Bool

// spinSkips counts skipped iterations while countSpins is on, so the
// tests can check that the skipping path ran. Runs sharing the process
// do not pay for a shared counter otherwise.
var (
	countSpins atomic.Bool
	spinSkips  atomic.Uint64
)

// Spin follows one core through a spin-wait loop. The machine reports
// every iteration — a step that took the loop's branch back and then
// performed its load — with Observe, and calls Reset on every other
// step and on anything else that changes the core's registers, timing
// or chunk.
//
// A core is steady once two consecutive iterations hit in L1 at the same
// address and value and the second left the timing state the first left,
// shifted: every time an iteration reads or sets (the clock, the ROB
// entries' completion times, SC's visibility chain, the loaded
// register's ready time) moved forward by one period d, and every
// sequence number by the same count. An iteration reads no other timing
// state, and reads these only relative to each other, so each later
// iteration shifts them by the same amounts and adds the same stall
// cycles — provided it too hits in L1 and loads the same value, which
// the machine checks against its caches and memory before skipping.
// Steadiness is checked, not assumed: a core whose ROB still holds an
// older miss, or whose stores or misses are in flight, is not steady.
type Spin struct {
	pc   int   // the spin load's PC
	rx   uint8 // the register it loads
	addr uint32
	val  uint64
	n    int // consecutive observed iterations, capped at 2 (steady)

	prev spinSnap // timing after the last observed iteration

	// One iteration's change, valid while steady.
	d, dseq uint64
	scShift bool // SC's visibility chain moves with the clock
	dctr    [numStallCtrs]uint64
}

const numStallCtrs = 7

// stallCtrs returns the timing model's accumulators, which iterations
// add to but never read.
func (c *CoreTiming) stallCtrs() [numStallCtrs]*uint64 {
	return [numStallCtrs]*uint64{&c.StallCycles, &c.RobStallCycles, &c.SBStallCycles,
		&c.DrainStallCycles, &c.RegStallCycles, &c.ExtStallCycles, &c.MSHRWaitCycles}
}

// spinSnap is a copy of the timing state an iteration reads or changes.
type spinSnap struct {
	clock, seq, scLastDone, ready uint64 // ready: the loaded register's
	ctr                           [numStallCtrs]uint64
	pend                          []pendOp
}

func (s *spinSnap) take(c *CoreTiming, rx uint8) {
	s.clock, s.seq, s.scLastDone, s.ready = c.Clock, c.Seq, c.scLastDone, c.regReady[rx]
	for i, p := range c.stallCtrs() {
		s.ctr[i] = *p
	}
	s.pend = s.pend[:0]
	for i := 0; i < c.pend.len(); i++ {
		s.pend = append(s.pend, c.pend.at(i))
	}
}

// quiet reports whether nothing but the ROB is in flight: no buffered
// stores, no outstanding misses, and no register but rx awaiting a load.
func (c *CoreTiming) quiet(rx uint8) bool {
	if c.stores.len() > 0 || len(c.mshr) > 0 {
		return false
	}
	for r, t := range c.regReady {
		if t > c.Clock && r != int(rx) {
			return false
		}
	}
	return true
}

// Reset forgets the core's iterations: its next one starts the count
// afresh.
func (s *Spin) Reset() { s.n = 0 }

// Observe records one iteration of the spin loop whose load ld, at pc,
// just read val from addr; hit reports an L1 hit. tm is the core's
// timing state after the load.
func (s *Spin) Observe(tm *CoreTiming, pc int, ld *isa.Inst, addr uint32, val uint64, hit bool) {
	rx := ld.Rd
	if !hit || !tm.quiet(rx) {
		s.n = 0
		return
	}
	if s.n > 0 && s.pc == pc && s.addr == addr && s.val == val && s.shifted(tm, rx) {
		s.n = 2
	} else {
		s.n = 1
	}
	s.pc, s.rx, s.addr, s.val = pc, rx, addr, val
	s.prev.take(tm, rx)
}

// shifted reports whether tm is s.prev moved forward by one period, and
// records that period.
func (s *Spin) shifted(tm *CoreTiming, rx uint8) bool {
	p := &s.prev
	d, dseq := tm.Clock-p.clock, tm.Seq-p.seq
	if d == 0 || tm.regReady[rx] != p.ready+d || tm.pend.len() != len(p.pend) {
		return false
	}
	sc := tm.scLastDone
	if sc != p.scLastDone && sc != p.scLastDone+d {
		return false
	}
	for i, op := range p.pend {
		if q := tm.pend.at(i); q.done != op.done+d || q.seq != op.seq+dseq {
			return false
		}
	}
	s.d, s.dseq, s.scShift = d, dseq, sc != p.scLastDone
	for i, c := range tm.stallCtrs() {
		s.dctr[i] = *c - p.ctr[i]
	}
	return true
}

// Steady reports whether the core, now at pc, is about to repeat its
// last iteration: it is steady and sits at the loop's branch. The caller
// must still check that the load will hit in L1 and read Val again.
func (s *Spin) Steady(pc int) bool {
	return s.n == 2 && pc == s.pc+1 && !stepSpins.Load()
}

// Addr and Val are the spin load's address and the value it keeps
// reading; Period is one iteration's length in cycles.
func (s *Spin) Addr() uint32   { return s.addr }
func (s *Spin) Val() uint64    { return s.val }
func (s *Spin) Period() uint64 { return s.d }

// Skip applies k further iterations to tm, exactly as stepping them
// would. The caller applies their other effects: the retired
// instructions, the memory op and L1 hit counts, and the core's
// observers.
func (s *Spin) Skip(tm *CoreTiming, k uint64) {
	dt, ds := k*s.d, k*s.dseq
	tm.Clock += dt
	tm.Seq += ds
	if s.scShift {
		tm.scLastDone += dt
	}
	tm.regReady[s.rx] += dt
	for i := 0; i < tm.pend.len(); i++ {
		op := tm.pend.ref(i)
		op.done += dt
		op.seq += ds
	}
	for i, c := range tm.stallCtrs() {
		*c += k * s.dctr[i]
	}
	s.prev.take(tm, s.rx)
	if countSpins.Load() {
		spinSkips.Add(k)
	}
}

// Horizon is the first action a skip must stop before: one at time T
// that comes before any core step at T by a processor with index >= Proc.
// A core's own step has Proc equal to its index; device and global events,
// which come before every core step at their time, have Proc -1.
type Horizon struct {
	T    uint64
	Proc int
}

// noHorizon is a horizon nothing reaches.
func noHorizon() Horizon { return Horizon{T: math.MaxUint64, Proc: math.MaxInt} }

// Min lowers h to (t, proc) if that comes first.
func (h *Horizon) Min(t uint64, proc int) {
	if t < h.T || t == h.T && proc < h.Proc {
		h.T, h.Proc = t, proc
	}
}

// Iters returns how many iterations of processor proc, the first at time
// t and one every d cycles, come before h.
func (h Horizon) Iters(t, d uint64, proc int) uint64 {
	if h.T == math.MaxUint64 {
		return math.MaxUint64
	}
	if t > h.T {
		return 0
	}
	gap := h.T - t
	var n uint64
	if gap > 0 {
		n = (gap-1)/d + 1
	}
	if proc < h.Proc && gap%d == 0 {
		n++
	}
	return n
}

// spinRun is one core's share of a skip: its next iteration starts at
// time T, each takes D cycles, and N of them are skipped.
type spinRun struct {
	Proc    int
	T, D, N uint64
}

// limitSpins lowers the runs' N so that at most m iterations are skipped
// in all. Stepping runs the iterations in (time, processor) order and an
// instruction budget stops it after the m-th, so the runs keep the
// iterations that start before the latest time T at which no more than m
// do; the few that start at T itself are left to stepping.
func limitSpins(runs []spinRun, m uint64) {
	var total, hi uint64
	lo := uint64(math.MaxUint64)
	for i := range runs {
		r := &runs[i]
		r.N = min(r.N, m)
		total += r.N
		if r.N > 0 {
			lo = min(lo, r.T)
			hi = max(hi, r.T+(r.N-1)*r.D)
		}
	}
	if total <= m {
		return
	}
	before := func(t uint64) uint64 {
		var n uint64
		for _, r := range runs {
			n += min(r.N, Horizon{T: t, Proc: -1}.Iters(r.T, r.D, r.Proc))
		}
		return n
	}
	// before(lo) is 0 and before(hi+1) is total > m; find the largest t
	// in [lo, hi] with before(t) <= m.
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if before(mid) <= m {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	for i := range runs {
		r := &runs[i]
		r.N = min(r.N, Horizon{T: lo, Proc: -1}.Iters(r.T, r.D, r.Proc))
	}
}

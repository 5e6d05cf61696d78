package sim

// CoreTiming models one core's timing: a local cycle clock, ROB-bounded
// runahead past incomplete memory operations, MSHR-bounded miss-level
// parallelism, an RC store buffer with out-of-order completion, and
// register-availability tracking so that address dependences on pending
// loads stall realistically.
//
// The model is deliberately at memory-op granularity: non-memory
// instructions are charged in batches at the issue width. What separates
// SC, RC and chunked execution is *which ordering constraints apply to
// memory completion*, and those are expressed through the small set of
// methods below (LoadOp/StoreSC/StoreRC/Drain).
type CoreTiming struct {
	Clock uint64 // local cycle count
	Seq   uint64 // dynamic instructions issued (including squashed work)

	cfg *Config

	// pend holds incomplete memory ops occupying the ROB, oldest first.
	pend fifo[pendOp]
	// stores holds RC store-buffer completion times, oldest first.
	stores fifo[uint64]
	// mshr holds outstanding-miss completion times (unordered).
	mshr []uint64
	// scLastDone chains SC memory-op completion in program order. Under
	// SC every memory operation must appear to perform in program order;
	// with exclusive prefetching and speculative loads the *fetch* starts
	// at issue, but the completion (visibility) point chains.
	scLastDone uint64
	// regReady[r] is when register r's value becomes available (loads
	// write their destination at completion).
	regReady [16]uint64
	// reapedAt is the Clock of the last reap (see reap).
	reapedAt uint64

	// StallCycles accumulates cycles the core spent waiting (ROB full,
	// store buffer full, drains). Used for Table 6 style reporting.
	StallCycles uint64

	// Stall-cause breakdown (subsets of StallCycles, kept unconditionally —
	// a handful of adds on paths that are already stalling). RegStallCycles
	// covers address/data dependences on pending loads; ExtStallCycles the
	// externally imposed waits (commit grants, chunk slots, the engine's
	// AdvanceTo resumes).
	RobStallCycles   uint64
	SBStallCycles    uint64
	DrainStallCycles uint64
	RegStallCycles   uint64
	ExtStallCycles   uint64
	// MSHRWaitCycles accumulates the latency added by waiting for an MSHR
	// slot (miss-level-parallelism pressure). It does not stall the core
	// clock directly, so it is not part of StallCycles.
	MSHRWaitCycles uint64
}

type pendOp struct {
	seq  uint64
	done uint64
}

// fifo is a ring-buffer queue. Its capacity doubles when full and never
// shrinks, so once a core has seen its deepest ROB or store-buffer
// occupancy, push and pop never allocate. (A slice popped by reslicing
// leaks capacity off the front and reallocates on every wrap.)
type fifo[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

// at returns the i-th oldest entry.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// ref returns a pointer to the i-th oldest entry.
func (q *fifo[T]) ref(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		nb := make([]T, max(2*len(q.buf), 8))
		k := copy(nb, q.buf[q.head:])
		copy(nb[k:], q.buf[:q.head])
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *fifo[T]) clear() { q.head, q.n = 0, 0 }

// NewCoreTiming returns a core clock at time 0.
func NewCoreTiming(cfg *Config) *CoreTiming {
	return &CoreTiming{cfg: cfg}
}

// Restart returns c to NewCoreTiming(cfg)'s state, keeping its queues'
// buffers.
func (c *CoreTiming) Restart(cfg *Config) {
	c.Reset()
	*c = CoreTiming{cfg: cfg, pend: c.pend, stores: c.stores, mshr: c.mshr}
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// advance moves the clock forward to t, accounting the difference as
// stall.
func (c *CoreTiming) advance(t uint64) {
	if t > c.Clock {
		c.StallCycles += t - c.Clock
		c.Clock = t
	}
}

// advanceAs moves the clock forward to t, attributing the stall to the
// given breakdown counter as well as the aggregate.
func (c *CoreTiming) advanceAs(t uint64, cause *uint64) {
	if t > c.Clock {
		d := t - c.Clock
		c.StallCycles += d
		*cause += d
		c.Clock = t
	}
}

// ChargeALU accounts n non-memory instructions.
func (c *CoreTiming) ChargeALU(n int) {
	if n <= 0 {
		return
	}
	c.Seq += uint64(n)
	w := uint64(c.cfg.IssueWidth)
	c.Clock += (uint64(n) + w - 1) / w
}

// reap drops completed entries from the ROB, MSHR and store lists.
//
// A reap at an unchanged clock has nothing to drop, so it returns at
// once. After a reap, the first pend and store entries and every MSHR
// entry complete after the clock. Every entry pushed since completes
// after the clock too, because every latency is at least one cycle
// (checkLatencies): a hit completes at Clock+lat, and a miss at its
// MSHR start, never before Clock, plus lat. An entry popped off the
// front without a reap (robAdmit, StoreRC, StoreTSO) is waited for
// first, which moves the clock. So while the clock stands still, every
// entry a reap would look at completes after it.
func (c *CoreTiming) reap() {
	if c.Clock == c.reapedAt {
		return
	}
	c.reapedAt = c.Clock
	for c.pend.len() > 0 && c.pend.front().done <= c.Clock {
		c.pend.pop()
	}
	k := 0
	for _, d := range c.mshr {
		if d > c.Clock {
			c.mshr[k] = d
			k++
		}
	}
	c.mshr = c.mshr[:k]
	for c.stores.len() > 0 && c.stores.front() <= c.Clock {
		c.stores.pop()
	}
}

// robAdmit stalls until the ROB has room for an op issued at the current
// Seq, then records it with the given completion time.
func (c *CoreTiming) robAdmit(done uint64) {
	c.reap()
	for c.pend.len() > 0 && c.Seq-c.pend.front().seq >= uint64(c.cfg.ROB) {
		c.advanceAs(c.pend.front().done, &c.RobStallCycles)
		c.pend.pop()
	}
	if done > c.Clock {
		c.pend.push(pendOp{seq: c.Seq, done: done})
	}
}

// mshrStart returns the earliest cycle a new miss can begin, consuming an
// MSHR slot through the returned completion time once the caller appends
// it via mshrFinish.
func (c *CoreTiming) mshrStart() uint64 {
	c.reap()
	start := c.Clock
	if len(c.mshr) >= c.cfg.MSHRs {
		// Wait (without stalling the core clock) for the earliest slot.
		earliest, idx := c.mshr[0], 0
		for i, d := range c.mshr[1:] {
			if d < earliest {
				earliest, idx = d, i+1
			}
		}
		c.mshr = append(c.mshr[:idx], c.mshr[idx+1:]...)
		if earliest > start {
			c.MSHRWaitCycles += earliest - start
		}
		start = maxu(start, earliest)
	}
	return start
}

func (c *CoreTiming) mshrFinish(done uint64) {
	c.mshr = append(c.mshr, done)
}

// WaitReg stalls issue until register r's value is available (address or
// store-data dependence on a pending load).
func (c *CoreTiming) WaitReg(r uint8) {
	c.advanceAs(c.regReady[r], &c.RegStallCycles)
}

// RegReady exposes the register-availability array so the interpreter can
// propagate load→ALU dependence chains (isa.RunToMemOpTimed).
func (c *CoreTiming) RegReady() *[16]uint64 { return &c.regReady }

// AdvanceTo moves the clock forward to t (a no-op if t is in the past),
// accounting the wait as stall cycles — used when a core blocked on an
// external event (a commit grant, a chunk slot) resumes.
func (c *CoreTiming) AdvanceTo(t uint64) { c.advanceAs(t, &c.ExtStallCycles) }

// LoadOp issues a load with the given memory latency; the value becomes
// available (and register rd ready) at the returned completion time. The
// core does not stall unless the ROB fills. isHit selects the hit path,
// which bypasses MSHRs. When scOrder is set the completion chains after
// the previous memory operation (SC program-order visibility); the fetch
// itself still starts at issue, so independent misses overlap.
func (c *CoreTiming) LoadOp(lat uint64, isHit, scOrder bool, rd uint8) uint64 {
	c.Seq++
	var done uint64
	if isHit {
		done = c.Clock + lat
	} else {
		start := c.mshrStart()
		done = start + lat
		c.mshrFinish(done)
	}
	if scOrder {
		done = maxu(done, c.scLastDone+1)
		c.scLastDone = done
	}
	c.robAdmit(done)
	c.regReady[rd] = done
	return done
}

// StoreRC issues a store under RC: it retires into the store buffer and
// completes out of order. The core stalls only when the buffer is full.
func (c *CoreTiming) StoreRC(lat uint64, isHit bool) uint64 {
	c.Seq++
	c.reap()
	for c.stores.len() > 0 && c.stores.len() >= c.cfg.StoreBuf {
		c.advanceAs(c.stores.front(), &c.SBStallCycles)
		c.stores.pop()
	}
	var done uint64
	if isHit {
		done = c.Clock + lat
	} else {
		start := c.mshrStart()
		done = start + lat
		c.mshrFinish(done)
	}
	c.stores.push(done)
	return done
}

// StoreTSO issues a store under TSO: it retires into the FIFO store
// buffer (the core stalls only when the buffer is full), but visibility
// chains in program order among stores — the fetch starts at issue, the
// completion orders after the previous store.
func (c *CoreTiming) StoreTSO(lat uint64, isHit bool) uint64 {
	c.Seq++
	c.reap()
	for c.stores.len() > 0 && c.stores.len() >= c.cfg.StoreBuf {
		c.advanceAs(c.stores.front(), &c.SBStallCycles)
		c.stores.pop()
	}
	var fetched uint64
	if isHit {
		fetched = c.Clock + lat
	} else {
		start := c.mshrStart()
		fetched = start + lat
		c.mshrFinish(fetched)
	}
	done := maxu(fetched, c.scLastDone+1)
	c.scLastDone = done
	c.stores.push(done)
	return done
}

// PendingStores reports the number of buffered, incomplete stores — the
// condition under which a TSO load bypasses program order (what Advanced
// RTR's violation detector watches).
func (c *CoreTiming) PendingStores() int {
	c.reap()
	return c.stores.len()
}

// StoreSC issues a store under SC: visibility chains in program order
// after the previous store, and the op occupies the ROB until visible
// (exclusive prefetching still starts the line fetch immediately, so the
// latency is paid from issue, not from the chain point).
func (c *CoreTiming) StoreSC(lat uint64, isHit bool) uint64 {
	c.Seq++
	var fetched uint64
	if isHit {
		fetched = c.Clock + lat
	} else {
		start := c.mshrStart()
		fetched = start + lat
		c.mshrFinish(fetched)
	}
	done := maxu(fetched, c.scLastDone+1)
	c.scLastDone = done
	c.robAdmit(done)
	return done
}

// Drain stalls until every outstanding memory operation (loads, stores,
// store buffer) has completed — a fence, an atomic boundary, or an
// uncached access.
func (c *CoreTiming) Drain() {
	c.advanceAs(c.CompletionHorizon(), &c.DrainStallCycles)
	c.pend.clear()
	c.stores.clear()
	c.mshr = c.mshr[:0]
	c.scLastDone = maxu(c.scLastDone, c.Clock)
}

// DrainStores stalls until buffered stores have completed (release
// semantics for RC atomics) without waiting on outstanding loads.
func (c *CoreTiming) DrainStores() {
	c.advanceAs(maxu(c.Clock, c.storeHorizon()), &c.DrainStallCycles)
	c.stores.clear()
}

// Outstanding reports whether any memory operation is still in flight.
func (c *CoreTiming) Outstanding() bool {
	c.reap()
	return c.pend.len() > 0 || c.stores.len() > 0 || len(c.mshr) > 0
}

// CompletionHorizon returns the cycle at which all currently outstanding
// operations will have completed (the chunk-completion point for the
// chunked engine).
func (c *CoreTiming) CompletionHorizon() uint64 {
	t := maxu(c.Clock, maxu(c.pendHorizon(), c.storeHorizon()))
	for _, d := range c.mshr {
		t = maxu(t, d)
	}
	return t
}

// Reset clears in-flight state without touching the clock (used after a
// chunk squash: the squashed chunk's memory operations die with it).
func (c *CoreTiming) Reset() {
	c.pend.clear()
	c.stores.clear()
	c.mshr = c.mshr[:0]
	c.regReady = [16]uint64{}
}

// pendHorizon returns the latest completion time among ROB entries (0
// when empty).
func (c *CoreTiming) pendHorizon() uint64 {
	var t uint64
	for i := 0; i < c.pend.len(); i++ {
		t = maxu(t, c.pend.at(i).done)
	}
	return t
}

// storeHorizon returns the latest completion time among buffered stores
// (0 when empty).
func (c *CoreTiming) storeHorizon() uint64 {
	var t uint64
	for i := 0; i < c.stores.len(); i++ {
		t = maxu(t, c.stores.at(i))
	}
	return t
}

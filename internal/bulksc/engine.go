package bulksc

import (
	"fmt"

	"delorean/internal/arbiter"
	"delorean/internal/chunk"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/rng"
	"delorean/internal/signature"
	"delorean/internal/sim"
	"delorean/internal/trace"
)

// Engine is the chunked multiprocessor. Configure the fields, then call
// Run once.
type Engine struct {
	Cfg   sim.Config
	Progs []*isa.Program
	Mem   *mem.Memory
	Devs  *device.Devices
	Obs   Observer
	// Policy orders commits; nil defaults to FreeOrder (plain BulkSC /
	// Order&Size / OrderOnly recording).
	Policy arbiter.Policy
	// Replay, when non-nil, switches the engine to replay: inputs come
	// from the logs instead of the device models.
	Replay ReplaySource
	// Perturb injects replay timing noise (nil: none).
	Perturb *Perturb
	// ExactConflicts uses exact line sets instead of signatures for
	// squash decisions (the ablation oracle).
	ExactConflicts bool
	// PicoLog enables predefined-order semantics: collision backoff is
	// unnecessary (and disabled) and high-priority interrupt handler
	// chunks commit out of turn at recorded slots.
	PicoLog bool
	// RandomTrunc models non-deterministic chunking for the Order&Size
	// mode (paper §5: 25% of chunks artificially truncated to a uniform
	// size in [1, max]). Only effective in record mode.
	RandomTrunc *RandomTrunc
	// CheckpointEvery, when > 0, captures a Checkpoint every that many
	// global commits and hands it to OnCheckpoint — the paper's periodic
	// system checkpoints that bound how far back a replay must start.
	CheckpointEvery uint64
	OnCheckpoint    func(Checkpoint)
	// Resume starts the engine from a checkpoint instead of the
	// programs' entry points (interval replay).
	Resume *Resume
	// StopAtCommit, when > 0, ends the run once that many global commits
	// (absolute count, including Resume.BaseCommits; split continuation
	// pieces share their base piece's slot and do not count) have been
	// applied — segmented replay runs each interval exactly up to the next
	// checkpoint's cut. The stop is a consistent boundary: once the target
	// is reached no further ordinary commit is granted, but continuation
	// pieces of a chunk whose base piece committed before the cut still
	// drain (they occupy the base's log slot, so their stores belong to
	// this side of the boundary). Stats.Stopped reports a clean stop.
	StopAtCommit uint64
	// Trace, when non-nil, receives the run's execution timeline and
	// end-of-run counter aggregates. It must be built for NProcs
	// processors (trace.NewSink). Tracing is observation-only: Stats,
	// logs and observer streams are byte-identical with it on or off.
	Trace *trace.Sink
	// Cancel, when non-nil, requests cooperative cancellation: once the
	// channel closes, the run stops at the next scheduler step (within a
	// bounded number of events — far less than one chunk's worth of
	// execution) and Stats.Cancelled reports it. Cancellation leaves the
	// engine in the same reusable state as any other early exit: a later
	// Run (with fresh Mem/Policy/Replay, and Cancel cleared or re-armed)
	// behaves exactly like a run on a fresh engine. The serving layer
	// arms this with a request context's Done channel.
	Cancel <-chan struct{}

	arb   *arbiter.Arbiter
	ms    *sim.MemSys // from sim's pool; held only while Run executes
	cores []*core
	// events holds the global events only: DMA arrivals, commit-request
	// submissions and arbiter wake-ups. Core wake-ups live in the cores'
	// (wake, wakeOK) fields; step merges the two.
	events eventHeap
	stats  Stats
	now    uint64 // current global event time (monotone)

	// gtr caches Trace's global stream (nil when tracing is off) so the
	// engine-wide emission sites pay one nil check when disabled.
	gtr *trace.Stream

	doneCores      int
	lastCkptAt     uint64
	tokenTrack     int  // PicoLog: token holder after the APPLIED commits
	replayDMAOpen  bool // replay: a DMA request is queued at the arbiter
	inputStarved   bool // replay: an input log ran dry mid-run (corrupt log)
	lastCommitTime uint64

	// policy is the effective commit-ordering policy: e.Policy, wrapped in
	// the stop gate when StopAtCommit is set. All engine-side policy calls
	// go through it.
	policy arbiter.Policy
	gate   *stopGate
	// appliedCommits counts applied non-split commits (absolute: seeded
	// from Resume.BaseCommits), matching record-mode slot numbering.
	appliedCommits uint64
	stopPending    bool // commit target reached; draining owed splits
	stopped        bool // drain finished: the run ends at the boundary

	// cancelled latches a Cancel-channel close; cancelPoll rations the
	// channel polls to one every cancelPollMask+1 scheduler steps.
	cancelled  bool
	cancelPoll uint32
}

// cancelPollMask spaces Cancel-channel polls: one select per 64 scheduler
// steps. A chunk is hundreds to thousands of instructions — many events —
// so a cancelled run stops well within one chunk window, while an
// uncancellable run pays only a nil check per step.
const cancelPollMask = 63

// pollCancel samples the Cancel channel (rationed) and latches the
// result.
func (e *Engine) pollCancel() {
	if e.Cancel == nil || e.cancelled {
		return
	}
	if e.cancelPoll++; e.cancelPoll&cancelPollMask != 0 {
		return
	}
	select {
	case <-e.Cancel:
		e.cancelled = true
	default:
	}
}

// stopGate wraps the ordering policy so reaching StopAtCommit closes the
// arbiter to further ordinary grants. Split continuations bypass the
// policy in the arbiter and therefore still drain through a closed gate.
type stopGate struct {
	inner  arbiter.Policy
	closed bool
}

func (g *stopGate) MayGrant(r *arbiter.Request, gc uint64) bool {
	if g.closed {
		return false
	}
	return g.inner.MayGrant(r, gc)
}
func (g *stopGate) Granted(r *arbiter.Request, now, gc uint64) { g.inner.Granted(r, now, gc) }
func (g *stopGate) MarkDone(p int)                             { g.inner.MarkDone(p) }
func (g *stopGate) Head(gc uint64) (int, bool) {
	if g.closed {
		return -1, false
	}
	return g.inner.Head(gc)
}

type tentIntr struct {
	seq      uint64
	typ      int64
	data     int64
	urgent   bool
	savedIrq int // record mode: device-queue index to rewind to on cancel
}

type blockReason uint8

const (
	notBlocked blockReason = iota
	waitSlot               // both simultaneous chunks uncommitted
	waitIO                 // uncached access waiting for prior commits
	waitOverflow
)

type core struct {
	proc int
	prog *isa.Program
	ts   isa.ThreadState
	tm   *sim.CoreTiming

	chunks []*chunk.Chunk // uncommitted, oldest first; cur is last when running
	cur    *chunk.Chunk

	nextSeq    uint64
	blocked    blockReason
	blockStart uint64

	pendingIO   *isa.Inst
	splitRemain int
	splitSeq    uint64
	splitBudget chunk.TruncReason

	irqIdx   int
	ioCount  int // uncached loads performed (checkpoint offsets)
	haltDone bool

	// tent holds tentative interrupt deliveries: an interrupt is
	// delivered speculatively at a chunk boundary and becomes
	// architectural only when that chunk commits. A squash rolling back
	// past the delivery point cancels it (and, in record mode, returns
	// the interrupt to the device queue for redelivery). Logging and
	// observer notification happen at finalization, so recording and
	// replay emit exactly the surviving deliveries.
	tent []tentIntr

	lastReqArrive uint64 // commit requests leave the core in chunk order

	// Per-core state whose behaviour must depend only on this core's own
	// execution, never on how the scheduler interleaves cores: the
	// chunk-storage free list and the perturbation and random-truncation
	// streams (seeded per processor, so a core's draw sequence is a
	// function of its own steps), and the executed-instruction counter.
	free []chunk.Storage
	prng *rng.Source
	trng *rng.Source
	exec uint64

	// wake is the core's next step time, valid while wakeOK. A core has
	// at most one pending step, so it lives here rather than in the event
	// heap; rescheduling overwrites it.
	wake   uint64
	wakeOK bool

	// tr is this core's trace stream (nil when tracing is off).
	tr *trace.Stream

	useful     uint64
	wasted     uint64
	memOps     uint64
	chunksDone uint64
	squashes   uint64
	slotStall  uint64
}

// Global event kinds, in same-time priority order. Every global event
// at a given time runs before any core step at that time.
const (
	evDMA uint8 = iota
	evSubmit
	evArb
)

type event struct {
	time uint64
	kind uint8
	id   int
	req  *arbiter.Request
}

// eventHeap is a hand-rolled binary min-heap of events. container/heap
// would box every event into an interface on Push/Pop — one allocation
// per scheduled event on the engine's hottest loop — so the sift
// operations are implemented directly on the slice.
type eventHeap []event

func (a event) less(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

func (h eventHeap) Len() int { return len(h) }

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the request reference for the GC
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].less(s[min]) {
			min = l
		}
		if r < n && s[r].less(s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

func (e *Engine) push(ev event) { e.events.push(ev) }

// newChunk starts a chunk for co, reusing a retired chunk's interior
// buffers when available. The free list is per-core so recycling order
// depends only on the core's own chunk turnover, not on how cores
// interleave.
func (e *Engine) newChunk(co *core, seqID uint64, ckpt isa.ThreadState, target int) *chunk.Chunk {
	if n := len(co.free); n > 0 {
		st := co.free[n-1]
		co.free = co.free[:n-1]
		return chunk.NewWith(st, co.proc, seqID, ckpt, target)
	}
	return chunk.New(co.proc, seqID, ckpt, target)
}

// releaseChunk reclaims a retired (committed, squashed or abandoned)
// chunk's interior buffers into its core's free list. The chunk object
// itself is left alone: stale events and arbiter bookkeeping may still
// compare its pointer.
func (e *Engine) releaseChunk(c *chunk.Chunk) {
	co := e.cores[c.Proc]
	co.free = append(co.free, c.TakeStorage())
}

// resetRun clears all per-run state so a reused Engine starts every Run
// from scratch. Without it a second Run on the same Engine doubled
// e.cores, accumulated e.stats and kept the previous run's pending
// events.
//
// Configuration fields are left alone. Note that a stateful Policy or
// ReplaySource (LogOrder, replay log cursors) carries its own position
// across runs: callers reusing an Engine must install fresh ones, just
// as they must provide a fresh Mem image.
func (e *Engine) resetRun() {
	e.arb = nil
	e.ms = nil
	e.cores = nil
	e.events = nil
	e.stats = Stats{}
	e.now = 0
	e.gtr = nil
	e.doneCores = 0
	e.lastCkptAt = 0
	e.tokenTrack = 0
	e.replayDMAOpen = false
	e.inputStarved = false
	e.lastCommitTime = 0
	e.policy = nil
	e.gate = nil
	e.appliedCommits = 0
	e.stopPending = false
	e.stopped = false
	e.cancelled = false
	e.cancelPoll = 0
}

// Run executes the machine to completion and returns statistics. The
// returned Stats does not alias engine state and survives reuse.
func (e *Engine) Run() Stats {
	if len(e.Progs) != e.Cfg.NProcs {
		panic(fmt.Sprintf("bulksc: %d programs for %d processors", len(e.Progs), e.Cfg.NProcs))
	}
	e.resetRun()
	if e.Devs == nil {
		e.Devs = device.New(0)
	}
	if e.Obs == nil {
		e.Obs = NopObserver{}
	}
	if e.Policy == nil {
		e.Policy = arbiter.FreeOrder{}
	}
	if e.Trace != nil && e.Trace.NProcs() != e.Cfg.NProcs {
		panic(fmt.Sprintf("bulksc: trace sink built for %d processors, machine has %d",
			e.Trace.NProcs(), e.Cfg.NProcs))
	}
	e.gtr = e.Trace.Global()
	e.policy = e.Policy
	if e.StopAtCommit > 0 {
		e.gate = &stopGate{inner: e.Policy}
		e.policy = e.gate
	}
	// A recording's checkpoints read their memory deltas out of the
	// memory's write journal (capture), restarted at every checkpoint.
	if e.checkpointing() {
		e.Mem.BeginJournal()
	}
	e.arb = arbiter.New(e.Cfg.ArbLat, e.Cfg.CommitDur, e.Cfg.MaxConcurCommits, e.policy)
	e.arb.Exact = e.ExactConflicts
	e.arb.Trace = e.gtr
	e.ms = sim.AcquireMemSys(&e.Cfg)
	e.stats.TruncBy = make(map[chunk.TruncReason]uint64)

	if e.Resume != nil {
		e.arb.StartCommits(e.Resume.BaseCommits)
		e.appliedCommits = e.Resume.BaseCommits
	}
	if e.StopAtCommit > 0 && e.appliedCommits >= e.StopAtCommit {
		// Degenerate empty interval: already at the boundary.
		e.stopPending, e.stopped = true, true
		e.gate.closed = true
	}
	for p := 0; p < e.Cfg.NProcs; p++ {
		co := &core{proc: p, prog: e.Progs[p], tm: sim.NewCoreTiming(&e.Cfg)}
		co.tr = e.Trace.Proc(p)
		co.ts.Reg[15] = int64(p)
		co.ts.Reg[14] = int64(e.Cfg.NProcs)
		// Per-core random streams: deriving each from (seed, proc) keeps
		// draw order a function of the core's own execution, not of how
		// cores interleave.
		if e.Perturb != nil {
			co.prng = rng.New(procStream(e.Perturb.Seed, p))
		}
		if e.RandomTrunc != nil {
			co.trng = rng.New(procStream(e.RandomTrunc.Seed, p))
		}
		if e.Resume != nil {
			pc := e.Resume.Procs[p]
			co.ts = pc.State
			co.nextSeq = pc.NextSeq
			co.ioCount = pc.IOConsumed
			if pi := pc.PendingIntr; pi != nil {
				co.tent = append(co.tent, tentIntr{seq: pi.Seq, typ: pi.Type, data: pi.Data, urgent: pi.Urgent})
			}
			if pc.Done {
				co.ts.Halted = true
				co.haltDone = true
				e.policy.MarkDone(p)
				e.doneCores++
			}
		}
		e.cores = append(e.cores, co)
		co.wakeOK = !co.haltDone
	}
	if e.Replay == nil {
		for i, tr := range e.Devs.DMA {
			e.push(event{time: tr.Time, kind: evDMA, id: i})
		}
	}

	budget := e.Cfg.MaxInsts
	if budget == 0 {
		budget = 100_000_000
	}

	for e.doneCores < e.Cfg.NProcs && !e.inputStarved && !e.stopped && e.execCount() < budget && e.chunkCount() < budget {
		if e.pollCancel(); e.cancelled {
			break
		}
		if !e.step() {
			break // no pending event and no runnable core
		}
	}

	if e.checkpointing() {
		e.Mem.EndJournal()
	}
	e.finishStats()
	sim.ReleaseMemSys(e.ms)
	e.ms = nil
	return e.stats.clone()
}

// execCount sums executed instructions (useful and squashed) across
// cores; the sum is cheap next to processing an event.
func (e *Engine) execCount() uint64 {
	var n uint64
	for _, co := range e.cores {
		n += co.exec
	}
	return n
}

// chunkCount sums committed chunks across cores. It backstops the
// instruction budget: a malformed replay log can drive the engine into
// committing empty chunks that never execute an instruction, which the
// instruction budget alone would let spin forever. Any legitimate run
// commits far fewer chunks than its instruction budget.
func (e *Engine) chunkCount() uint64 {
	var n uint64
	for _, co := range e.cores {
		n += co.chunksDone
	}
	return n
}

// step processes the earliest pending event in (time, kind, id) order:
// the heap's global events first, then core steps by processor. It
// reports false when nothing is pending.
func (e *Engine) step() bool {
	var next *core
	for _, co := range e.cores {
		if !co.wakeOK || co.blocked != notBlocked || co.haltDone {
			continue
		}
		// Past the stop target only cores owing split continuations keep
		// executing; stepping anyone else would consume replay inputs that
		// belong beyond the boundary.
		if e.stopPending && !co.owesContinuation() {
			continue
		}
		if next == nil || co.wake < next.wake {
			next = co
		}
	}
	if next != nil && (e.events.Len() == 0 || next.wake < e.events[0].time) {
		e.advance(next.wake)
		next.wakeOK = false
		e.stepCore(next) // re-arms wakeOK via reschedule unless the core blocked
		return true
	}
	if e.events.Len() == 0 {
		return false
	}
	ev := e.events.pop()
	e.advance(ev.time)
	switch ev.kind {
	case evDMA:
		e.recordDMAArrival(ev.id)
	case evSubmit:
		// The chunk may have been squashed between completion and this
		// request's arrival at the arbiter; drop stale requests.
		if c, isChunk := ev.req.Tag.(*chunk.Chunk); isChunk && !e.chunkAlive(c) {
			return true
		}
		e.arb.Submit(e.now, ev.req)
		e.drainArbiter()
	case evArb:
		e.drainArbiter()
	}
	return true
}

// advance moves the engine clock to the next event's time; events never
// run backwards.
func (e *Engine) advance(t uint64) {
	if t < e.now {
		panic("bulksc: event time regressed")
	}
	e.now = t
}

// procStream derives a per-processor seed from a run seed (SplitMix64's
// increment keeps distinct processors' streams disjoint in practice).
func procStream(seed uint64, p int) uint64 {
	return seed + 0x9e3779b97f4a7c15*uint64(p+1)
}

func (e *Engine) finishStats() {
	s := &e.stats
	s.Converged = e.doneCores == e.Cfg.NProcs
	s.Stopped = e.stopped
	s.Cancelled = e.cancelled
	s.Cycles = e.lastCommitTime
	for _, co := range e.cores {
		if co.tm.Clock > s.Cycles {
			s.Cycles = co.tm.Clock
		}
		s.Insts += co.useful
		s.WastedInsts += co.wasted
		s.MemOps += co.memOps
		s.Chunks += co.chunksDone
		s.Squashes += co.squashes
		s.StallCycles += co.tm.StallCycles
		s.SlotStallCycles += co.slotStall
		s.PerProc = append(s.PerProc, ProcStats{
			Cycles:          co.tm.Clock,
			Insts:           co.useful,
			WastedInsts:     co.wasted,
			Chunks:          co.chunksDone,
			Squashes:        co.squashes,
			SlotStallCycles: co.slotStall,
		})
	}
	// Interconnect traffic proxy: line transfers for every off-core
	// access, plus signature+grant exchange per commit, plus squash
	// control and refetch traffic.
	lineMsgs := e.ms.L2Hits + e.ms.MemAccesses + e.ms.C2CTransfers + e.ms.Upgrades
	s.TrafficBytes += lineMsgs * (isa.LineBytes + 8)
	s.TrafficBytes += s.Chunks * (signature.Bits/8 + 16)
	s.TrafficBytes += s.Squashes * 64
	if e.Trace != nil {
		e.fillCounters()
	}
}

// fillCounters publishes end-of-run aggregates into the trace sink's
// counter registry: the Stats fields, the per-cause stall breakdown the
// timing model keeps, and arbiter contention.
func (e *Engine) fillCounters() {
	r := e.Trace.Counters
	if r == nil {
		return
	}
	s := &e.stats
	r.Set("cycles", float64(s.Cycles))
	r.Set("insts.useful", float64(s.Insts))
	r.Set("insts.wasted", float64(s.WastedInsts))
	r.Set("mem.ops", float64(s.MemOps))
	r.Set("io.ops", float64(s.IOOps))
	r.Set("interrupts", float64(s.Interrupts))
	r.Set("dma.commits", float64(s.DMAs))
	r.Set("chunks.committed", float64(s.Chunks))
	r.Set("squashes.total", float64(s.Squashes))
	r.Set("squashes.spurious", float64(s.SpuriousSquashes))
	r.Set("traffic.bytes", float64(s.TrafficBytes))
	for reason, n := range s.TruncBy {
		r.Set("trunc."+reason.String(), float64(n))
	}
	var rob, sb, drain, reg, ext, mshr uint64
	for _, co := range e.cores {
		rob += co.tm.RobStallCycles
		sb += co.tm.SBStallCycles
		drain += co.tm.DrainStallCycles
		reg += co.tm.RegStallCycles
		ext += co.tm.ExtStallCycles
		mshr += co.tm.MSHRWaitCycles
	}
	r.Set("stall.total", float64(s.StallCycles))
	r.Set("stall.rob", float64(rob))
	r.Set("stall.store-buffer", float64(sb))
	r.Set("stall.drain", float64(drain))
	r.Set("stall.reg-dep", float64(reg))
	r.Set("stall.external", float64(ext))
	r.Set("stall.chunk-slot", float64(s.SlotStallCycles))
	r.Set("mshr.wait-cycles", float64(mshr))
	ast := e.arb.StatsAt(e.now)
	r.Set("arb.grants", float64(ast.Grants))
	r.Set("arb.ready-avg", ast.ReadyProcsAvg)
	r.Set("arb.commit-avg", ast.ActualCommitAvg)
	for _, co := range e.cores {
		p := fmt.Sprintf("p%d.", co.proc)
		r.Set(p+"cycles", float64(co.tm.Clock))
		r.Set(p+"insts", float64(co.useful))
		r.Set(p+"stall", float64(co.tm.StallCycles))
	}
}

// ---- core stepping ----

func (e *Engine) reschedule(co *core) {
	if co.blocked != notBlocked || co.haltDone {
		return
	}
	co.wake, co.wakeOK = co.tm.Clock, true
}

func (e *Engine) block(co *core, why blockReason) {
	co.blocked = why
	co.blockStart = co.tm.Clock
}

func (e *Engine) unblock(co *core) {
	if co.blocked == notBlocked {
		return
	}
	was := co.blocked
	co.blocked = notBlocked
	co.tm.AdvanceTo(e.now)
	if was == waitSlot && co.tm.Clock > co.blockStart {
		co.slotStall += co.tm.Clock - co.blockStart
	}
	// unblock only runs from commit application, so the stall event goes
	// to the global stream.
	if e.gtr != nil && co.tm.Clock > co.blockStart {
		e.gtr.Emit(trace.Event{Time: e.now, Proc: int32(co.proc), Kind: trace.Stall,
			A: co.tm.Clock - co.blockStart, B: uint64(was)})
	}
	e.reschedule(co)
}

func (e *Engine) stepCore(co *core) {
	// Record mode: high-priority interrupts squash the running chunk to
	// start their handler promptly (paper §4.2.1).
	if e.Replay == nil && !co.ts.InIntr && co.prog.IntrVec >= 0 &&
		co.cur != nil && co.cur.Insts > 0 && !co.cur.Checkpoint.InIntr {
		// The checkpoint guard matters: if the running chunk started
		// inside an earlier handler, squashing it restores InIntr and the
		// new interrupt still cannot deliver — squashing would repeat
		// forever. Wait for the natural chunk boundary instead.
		if iv, ok := e.peekIRQ(co); ok && iv.HighPriority && iv.Time <= co.tm.Clock {
			e.squashSelfForInterrupt(co)
			// Delivery happens when the next chunk starts below.
		}
	}

	if co.cur == nil && !e.startChunk(co) {
		return
	}
	c := co.cur
	limit := c.Target - c.Insts
	if limit <= 0 {
		e.completeChunk(co, c.BudgetReason)
		e.reschedule(co)
		return
	}

	n, pend := isa.RunToMemOpTimed(&co.ts, co.prog, limit, co.tm.RegReady())
	co.tm.ChargeALU(n)
	c.Insts += n
	co.exec += uint64(n)

	if pend == nil {
		if c.Insts >= c.Target {
			e.completeChunk(co, c.BudgetReason)
		}
		e.reschedule(co)
		return
	}

	switch pend.Op {
	case isa.HALT:
		// HALT occupies an instruction slot in its chunk so that no
		// committed chunk is ever empty (empty chunks would desynchronize
		// replay's size-driven chunking from the PI log).
		co.ts.Halted = true
		co.tm.Seq++
		c.Insts++
		co.exec++
		e.completeChunk(co, chunk.Halt)

	case isa.FENCE:
		// Chunk atomicity subsumes fences: a no-op (the performance win
		// the paper's RC-comparison rests on).
		co.ts.PC++
		co.tm.Seq++
		c.Insts++
		co.exec++
		if c.Insts >= c.Target {
			e.completeChunk(co, c.BudgetReason)
		}

	case isa.IORD, isa.IOWR:
		// Uncached access: truncate deterministically; the access runs
		// after every prior chunk commits (paper §4.2.2). An I/O op at
		// the very start of a chunk abandons the empty chunk rather than
		// committing a 0-size one (both runs do this identically).
		if c.Insts == 0 {
			co.cur = nil
			co.chunks = co.chunks[:len(co.chunks)-1]
			co.nextSeqRollback(c)
			e.releaseChunk(c)
		} else {
			e.completeChunk(co, chunk.Uncached)
		}
		co.pendingIO = pend

	case isa.LD:
		e.chunkLoad(co, pend)
		if c.Insts >= c.Target {
			e.completeChunk(co, c.BudgetReason)
		}

	case isa.ST, isa.SWAP, isa.FADD, isa.CAS:
		if e.chunkStore(co, pend) && c.Insts >= c.Target {
			e.completeChunk(co, c.BudgetReason)
		}
	default:
		panic(fmt.Sprintf("bulksc: unexpected pending op %v", pend.Op))
	}
	e.reschedule(co)
}

// lookupBuffers searches the processor's uncommitted chunks, newest
// first, for a buffered value.
func (co *core) lookupBuffers(addr uint32) (uint64, bool) {
	for i := len(co.chunks) - 1; i >= 0; i-- {
		if v, ok := co.chunks[i].Load(addr); ok {
			return v, true
		}
	}
	return 0, false
}

func (e *Engine) flipLat(co *core, lat uint64) uint64 {
	if e.Perturb == nil || e.Perturb.FlipProb == 0 || !co.prng.Bool(e.Perturb.FlipProb) {
		return lat
	}
	if lat == e.Cfg.L1Lat {
		return e.Cfg.MemLat
	}
	return e.Cfg.L1Lat
}

func (e *Engine) chunkLoad(co *core, in *isa.Inst) {
	co.tm.WaitReg(in.Rs)
	addr := in.MemAddr(&co.ts)
	line := isa.LineOf(addr)
	val, fromBuf := co.lookupBuffers(addr)
	var lat uint64
	if fromBuf {
		lat = e.Cfg.L1Lat // store-buffer forwarding
	} else {
		val = e.Mem.Load(addr)
		specLat, fill := e.ms.SpecLoad(co.proc, line)
		if fill != sim.FillNone {
			co.cur.NoteFill(line, uint8(fill))
		}
		lat = e.flipLat(co, specLat)
	}
	co.cur.NoteRead(line)
	co.tm.LoadOp(lat, lat == e.Cfg.L1Lat, false, in.Rd)
	in.Complete(&co.ts, val)
	co.cur.Insts++
	co.memOps++
	co.exec++
}

// chunkStore executes a store-class instruction into the chunk's write
// buffer. It returns false if the chunk was truncated by attempted cache
// overflow before the store executed (the store then lands in the next
// chunk).
func (e *Engine) chunkStore(co *core, in *isa.Inst) bool {
	co.tm.WaitReg(in.Rs)
	co.tm.WaitReg(in.Rt)
	addr := in.MemAddr(&co.ts)
	line := isa.LineOf(addr)
	c := co.cur

	if !c.WroteLine(line) {
		l1 := e.ms.L1(co.proc)
		set := l1.SetOf(line)
		if co.specLinesInSet(set, l1) >= l1.Ways() {
			if c.Insts == 0 {
				// The set is saturated by older uncommitted chunks; wait
				// for a commit to free it. (Truncating an empty chunk
				// cannot help.)
				if len(co.chunks) <= 1 {
					panic("bulksc: single chunk overflows an L1 set beyond associativity")
				}
				co.cur = nil
				co.chunks = co.chunks[:len(co.chunks)-1]
				co.nextSeqRollback(c)
				e.releaseChunk(c)
				e.block(co, waitOverflow)
				return false
			}
			// Attempted overflow: truncate the chunk before this store.
			e.truncateForOverflow(co)
			return false
		}
	}

	// Read-modify-writes also read.
	var old uint64
	isRMW := in.Op.IsAtomic()
	if v, ok := co.lookupBuffers(addr); ok {
		old = v
	} else {
		old = e.Mem.Load(addr)
	}
	if isRMW {
		c.NoteRead(line)
	}
	c.Write(addr, in.NewValue(&co.ts, old))

	specLat, fill := e.ms.SpecStore(co.proc, line)
	if fill != sim.FillNone {
		c.NoteFill(line, uint8(fill))
	}
	lat := e.flipLat(co, specLat)
	if isRMW {
		co.tm.LoadOp(lat, lat == e.Cfg.L1Lat, false, in.Rd)
	} else {
		co.tm.StoreRC(lat, lat == e.Cfg.L1Lat)
	}
	in.Complete(&co.ts, old)
	c.Insts++
	co.memOps++
	co.exec++
	return true
}

// specLinesInSet counts speculative lines in an L1 set across the
// processor's uncommitted chunks.
func (co *core) specLinesInSet(set int, l1 interface{ SetOf(uint32) int }) int {
	n := 0
	for _, c := range co.chunks {
		for _, l := range c.WLines() {
			if l1.SetOf(l) == set {
				n++
			}
		}
	}
	return n
}

// nextSeqRollback undoes the sequence-number allocation of a chunk that
// was abandoned before executing anything.
func (co *core) nextSeqRollback(c *chunk.Chunk) {
	if !c.SplitPiece && c.SeqID == co.nextSeq-1 {
		co.nextSeq--
	} else if c.SplitPiece {
		co.splitRemain = c.Target
	}
}

func (e *Engine) truncateForOverflow(co *core) {
	c := co.cur
	if e.Replay != nil {
		// Unexpected overflow during replay: the chunk commits as two
		// pieces sharing one log slot (paper §4.2.3).
		if _, expected := e.Replay.Truncation(co.proc, c.SeqID); !expected || c.SplitPiece || c.Insts < c.Target {
			co.splitRemain = c.Target - c.Insts
			co.splitSeq = c.SeqID
			co.splitBudget = c.BudgetReason
		}
	}
	e.completeChunk(co, chunk.Overflow)
}

// completeChunk finishes the running chunk and submits its commit
// request.
func (e *Engine) completeChunk(co *core, reason chunk.TruncReason) {
	c := co.cur
	c.Completed = true
	c.Reason = reason
	co.cur = nil

	ready := co.tm.CompletionHorizon()
	arrive := ready + e.Cfg.ArbLat
	if e.Perturb != nil && e.Perturb.StallProb > 0 && co.prng.Bool(e.Perturb.StallProb) {
		arrive += e.Perturb.StallMin + uint64(co.prng.Intn(int(e.Perturb.StallMax-e.Perturb.StallMin+1)))
	}
	// A processor sends its commit requests in chunk order: a younger
	// cache-hot chunk must not reach the arbiter before an older chunk
	// still waiting on a long-latency miss.
	if arrive <= co.lastReqArrive {
		arrive = co.lastReqArrive + 1
	}
	co.lastReqArrive = arrive
	if co.tr != nil {
		co.tr.Emit(trace.Event{Time: ready, Proc: int32(co.proc), Kind: trace.ChunkComplete,
			Seq: c.SeqID, A: uint64(c.Insts), B: uint64(reason),
			C: uint64(c.RSig.PopCount())<<32 | uint64(c.WSig.PopCount())})
		co.tr.Emit(trace.Event{Time: arrive, Proc: int32(co.proc), Kind: trace.ChunkSubmit,
			Seq: c.SeqID, A: uint64(c.Insts)})
	}
	req := &arbiter.Request{
		Proc:   co.proc,
		Arrive: arrive,
		Ready:  ready,
		RSig:   &c.RSig,
		WSig:   &c.WSig,
		WLines: c.WLines(),
		Urgent: c.Urgent && e.PicoLog,
		Split:  c.SplitPiece,
		Tag:    c,
	}
	e.push(event{time: arrive, kind: evSubmit, id: co.proc, req: req})
}

// ---- chunk lifecycle ----

// peekIRQ returns the next undelivered interrupt for the core in record
// mode.
func (e *Engine) peekIRQ(co *core) (device.Interrupt, bool) {
	ivs := e.Devs.Interrupts
	for co.irqIdx < len(ivs) && ivs[co.irqIdx].Proc != co.proc {
		co.irqIdx++
	}
	if co.irqIdx < len(ivs) {
		return ivs[co.irqIdx], true
	}
	return device.Interrupt{}, false
}

func (e *Engine) squashSelfForInterrupt(co *core) {
	c := co.cur
	if co.tr != nil {
		co.tr.Emit(trace.Event{Time: co.tm.Clock, Proc: int32(co.proc), Kind: trace.ChunkSquash,
			Seq: c.SeqID, A: uint64(c.Insts), B: uint64(co.proc)})
	}
	co.wasted += uint64(c.Insts)
	co.squashes++
	e.stats.Squashes++
	e.Obs.OnSquash(co.proc, c.SeqID, c.Insts, co.proc)
	co.chunks = co.chunks[:len(co.chunks)-1]
	co.cur = nil
	co.ts = c.Checkpoint
	co.tm.Reset()
	co.tm.Clock += e.Cfg.SquashPenalty
	co.nextSeqRollback(c)
	e.releaseChunk(c)
}

// startChunk prepares the next chunk (running pending I/O and delivering
// interrupts at the boundary first). It returns false if the core
// blocked or has nothing left to do.
func (e *Engine) startChunk(co *core) bool {
	if co.ts.Halted {
		return false // awaiting final commits
	}
	if co.pendingIO != nil {
		if len(co.chunks) > 0 {
			e.block(co, waitIO)
			return false
		}
		e.execIO(co)
	}
	if len(co.chunks) >= e.Cfg.SimulChunks {
		e.block(co, waitSlot)
		return false
	}

	var nc *chunk.Chunk
	if co.splitRemain > 0 {
		nc = e.newChunk(co, co.splitSeq, co.ts, co.splitRemain)
		nc.SplitPiece = true
		nc.BudgetReason = co.splitBudget
		nc.IOAtStart = co.ioCount
		co.splitRemain = 0
	} else {
		// Interrupt delivery happens at the chunk boundary, before the
		// checkpoint, so the handler chunk's checkpoint is inside the
		// handler.
		e.maybeDeliverInterrupt(co)
		seq := co.nextSeq
		co.nextSeq++
		target := e.Cfg.ChunkSize
		budget := chunk.SizeLimit
		if e.Replay != nil {
			if sz, ok := e.Replay.Truncation(co.proc, seq); ok {
				target = sz
				budget = chunk.CSReplay
			}
		} else if co.trng != nil && co.trng.Bool(e.RandomTrunc.Prob) {
			target = 1 + co.trng.Intn(e.Cfg.ChunkSize)
		}
		nc = e.newChunk(co, seq, co.ts, target)
		nc.BudgetReason = budget
		nc.IOAtStart = co.ioCount
		nc.Urgent = co.ts.InIntr && co.ts.IntrUrgent
	}
	co.chunks = append(co.chunks, nc)
	co.cur = nc
	if co.tr != nil {
		co.tr.Emit(trace.Event{Time: co.tm.Clock, Proc: int32(co.proc), Kind: trace.ChunkStart,
			Seq: nc.SeqID, A: uint64(nc.Target)})
	}
	return true
}

func (e *Engine) maybeDeliverInterrupt(co *core) {
	if co.ts.InIntr || co.prog.IntrVec < 0 {
		return
	}
	// A chunk whose first instruction is an uncached I/O access is
	// abandoned (empty) and re-created with the same sequence number
	// after the I/O executes. Interrupt delivery must happen at the
	// surviving creation — the same point in recording and replay — so
	// skip it here; the condition is deterministic in both runs.
	if pc := co.ts.PC; pc >= 0 && pc < len(co.prog.Insts) && co.prog.Insts[pc].Op.IsUncached() {
		return
	}
	if e.Replay != nil {
		if typ, data, urgent, ok := e.Replay.InterruptAt(co.proc, co.nextSeq); ok {
			co.ts.EnterInterrupt(co.prog.IntrVec, typ, data, urgent)
			co.tent = append(co.tent, tentIntr{seq: co.nextSeq, typ: typ, data: data, urgent: urgent})
		}
		return
	}
	iv, ok := e.peekIRQ(co)
	if !ok || iv.Time > co.tm.Clock {
		return
	}
	saved := co.irqIdx
	co.irqIdx++
	co.ts.EnterInterrupt(co.prog.IntrVec, iv.Type, iv.Data, iv.HighPriority)
	co.tent = append(co.tent, tentIntr{
		seq: co.nextSeq, typ: iv.Type, data: iv.Data, urgent: iv.HighPriority, savedIrq: saved,
	})
}

func (e *Engine) execIO(co *core) {
	in := co.pendingIO
	co.pendingIO = nil
	co.tm.Drain()
	var v uint64
	if in.Op == isa.IORD {
		if e.Replay != nil {
			var ok bool
			v, ok = e.Replay.NextIOValue(co.proc)
			if !ok {
				// A truncated I/O log (corrupt recording) starves this
				// core; leave the instruction pending so the core stalls
				// and the run terminates non-converged.
				e.inputStarved = true
				co.pendingIO = in
				return
			}
		} else {
			v = e.Devs.ReadPort(in.Imm, co.tm.Clock)
		}
		e.Obs.OnIORead(co.proc, in.Imm, v)
	} else if e.Replay == nil {
		e.Devs.WritePort(in.Imm, uint64(co.ts.Reg[in.Rs]), co.tm.Clock)
	}
	co.tm.Clock += e.Cfg.IOLat
	co.tm.Seq++
	if in.Op == isa.IORD {
		co.ioCount++
	}
	in.Complete(&co.ts, v)
	co.useful++
	co.exec++
	e.stats.IOOps++
}

// ---- commits and squashes ----

func (e *Engine) drainArbiter() {
	for {
		grants := e.arb.TryGrant(e.now)
		for _, g := range grants {
			// A grant landing in the same batch as the one that reached the
			// stop target is beyond the boundary: discard it (the run is
			// abandoned at the cut, so the arbiter's advanced state is
			// irrelevant). Owed split continuations still apply.
			if e.stopPending && !g.Split {
				continue
			}
			e.applyCommit(g)
		}
		if len(grants) > 0 {
			continue
		}
		if e.maybeReplayDMA() {
			continue
		}
		break
	}
	if nxt, ok := e.arb.NextEventAfter(e.now); ok {
		e.push(event{time: nxt, kind: evArb})
	}
}

// dmaPayload tags DMA commit requests.
type dmaPayload struct {
	addr uint32
	data []uint64
}

func (e *Engine) recordDMAArrival(i int) {
	tr := e.Devs.DMA[i]
	var w signature.Sig
	var lines []uint32
	last := uint32(0xffffffff)
	for k := range tr.Data {
		l := isa.LineOf(tr.Addr + uint32(k))
		if l != last {
			w.Insert(l)
			lines = append(lines, l)
			last = l
		}
	}
	req := &arbiter.Request{
		Proc:   DMAProc(e.Cfg.NProcs),
		Arrive: e.now + e.Cfg.ArbLat,
		Ready:  e.now,
		WSig:   &w,
		WLines: lines,
		Urgent: true,
		Tag:    dmaPayload{addr: tr.Addr, data: tr.Data},
	}
	e.push(event{time: req.Arrive, kind: evSubmit, id: DMAProc(e.Cfg.NProcs), req: req})
}

// maybeReplayDMA submits the next logged DMA transfer when the commit
// order requires it next.
func (e *Engine) maybeReplayDMA() bool {
	if e.Replay == nil || e.replayDMAOpen || e.stopPending {
		return false
	}
	head, ok := e.policy.Head(e.arb.GlobalCommits())
	if !ok || head != DMAProc(e.Cfg.NProcs) {
		return false
	}
	addr, data, ok := e.Replay.NextDMA()
	if !ok {
		// The commit order demands a DMA transfer the (corrupt) DMA log
		// no longer holds; without it the arbiter can never grant the
		// next slot, so terminate the run non-converged.
		e.inputStarved = true
		return false
	}
	var w signature.Sig
	var lines []uint32
	last := uint32(0xffffffff)
	for k := range data {
		l := isa.LineOf(addr + uint32(k))
		if l != last {
			w.Insert(l)
			lines = append(lines, l)
			last = l
		}
	}
	e.replayDMAOpen = true
	e.arb.Submit(e.now, &arbiter.Request{
		Proc:   DMAProc(e.Cfg.NProcs),
		Arrive: e.now,
		Ready:  e.now,
		WSig:   &w,
		WLines: lines,
		Urgent: true,
		Tag:    dmaPayload{addr: addr, data: data},
	})
	return true
}

func (e *Engine) applyCommit(g *arbiter.Request) {
	e.lastCommitTime = e.now
	if g.Proc == DMAProc(e.Cfg.NProcs) {
		p := g.Tag.(dmaPayload)
		for k, v := range p.data {
			e.Mem.Store(p.addr+uint32(k), v)
		}
		for _, l := range g.WLines {
			e.ms.DMAWrite(l)
		}
		e.stats.DMAs++
		e.replayDMAOpen = false
		e.Obs.OnDMACommit(g.Slot, p.addr, p.data)
		if e.gtr != nil {
			e.gtr.Emit(trace.Event{Time: e.now, Proc: -1, Kind: trace.DMACommit,
				A: g.Slot, B: uint64(len(p.data))})
		}
		e.squashConflicting(-1, g.WSig, g.WLines)
		e.maybeCheckpoint(g.Slot + 1)
		e.noteApplied(false)
		return
	}

	c := g.Tag.(*chunk.Chunk)
	co := e.cores[c.Proc]
	if len(co.chunks) == 0 || co.chunks[0] != c {
		panic("bulksc: commit grant out of per-processor order")
	}
	co.chunks = co.chunks[1:]

	// FNV-1a over (addr, value) little-endian, inlined: hash/fnv would
	// allocate a hash.Hash64 per commit.
	h := fnvOffset
	c.Apply(func(a uint32, v uint64) {
		e.Mem.Store(a, v)
		h = fnvByte(h, byte(a))
		h = fnvByte(h, byte(a>>8))
		h = fnvByte(h, byte(a>>16))
		h = fnvByte(h, byte(a>>24))
		for k := 0; k < 64; k += 8 {
			h = fnvByte(h, byte(v>>k))
		}
	})
	// Replay the chunk's journaled speculative fills (L2 installs,
	// directory transitions) in access order, then make its writes
	// globally visible. Squashed chunks' journals are simply dropped.
	for _, f := range c.Fills() {
		e.ms.ApplyFill(c.Proc, f.Line, sim.FillKind(f.Kind))
	}
	for _, l := range c.WLines() {
		e.ms.CommitLine(c.Proc, l)
	}

	co.useful += uint64(c.Insts)
	if !g.Split {
		co.chunksDone++
	}
	// The commit makes any interrupt delivered at this chunk's start
	// architectural: finalize it (log + stats).
	for len(co.tent) > 0 && co.tent[0].seq <= c.SeqID {
		ti := co.tent[0]
		co.tent = co.tent[1:]
		e.stats.Interrupts++
		e.Obs.OnInterrupt(co.proc, ti.seq, ti.typ, ti.data, ti.urgent)
	}
	e.stats.TruncBy[c.Reason]++
	e.Obs.OnCommit(CommitEvent{
		Proc:      c.Proc,
		SeqID:     c.SeqID,
		Size:      c.Insts,
		Time:      e.now,
		Slot:      g.Slot,
		Reason:    c.Reason,
		Urgent:    c.Urgent,
		Split:     g.Split,
		StoreHash: h,
		RSig:      &c.RSig,
		WSig:      &c.WSig,
	})
	if e.gtr != nil {
		e.gtr.Emit(trace.Event{Time: e.now, Proc: int32(c.Proc), Kind: trace.ChunkCommit,
			Seq: c.SeqID, A: g.Slot, B: uint64(c.Insts),
			C: uint64(c.RSig.PopCount())<<32 | uint64(c.WSig.PopCount())})
	}

	e.squashConflicting(c.Proc, &c.WSig, c.WLines())
	e.releaseChunk(c)

	// Track the round-robin token across APPLIED commits (the arbiter's
	// own policy state can run ahead within a grant batch).
	if e.PicoLog && !g.Split && !c.Urgent {
		e.advanceToken(c.Proc)
	}
	if co.ts.Halted && co.cur == nil && len(co.chunks) == 0 && co.pendingIO == nil {
		co.haltDone = true
		e.policy.MarkDone(co.proc)
		e.doneCores++
		if e.PicoLog && e.tokenTrack == co.proc {
			e.advanceToken(co.proc)
		}
		e.maybeCheckpoint(g.Slot + 1)
		e.noteApplied(g.Split)
		return
	}
	if co.blocked != notBlocked {
		e.unblock(co)
	}
	e.maybeCheckpoint(g.Slot + 1)
	e.noteApplied(g.Split)
}

// noteApplied advances the applied-commit count (split continuation
// pieces share their base's slot and do not count) and drives the
// StopAtCommit state machine: reaching the target closes the gate, and
// the run ends once no core owes a split continuation whose base piece
// committed before the cut.
func (e *Engine) noteApplied(split bool) {
	if !split {
		e.appliedCommits++
	}
	if e.StopAtCommit == 0 {
		return
	}
	if !e.stopPending && e.appliedCommits >= e.StopAtCommit {
		e.stopPending = true
		e.gate.closed = true
	}
	if e.stopPending && !e.stopped {
		e.stopped = true
		for _, co := range e.cores {
			if co.owesContinuation() {
				e.stopped = false
				break
			}
		}
	}
}

// owesContinuation reports whether the core still owes continuation
// pieces of a split chunk whose base (non-split) piece already committed.
// Such pieces occupy the base's log slot and must drain before a stop
// boundary; a split chain whose base has not committed belongs entirely
// to the other side of the cut.
func (co *core) owesContinuation() bool {
	if co.splitRemain > 0 {
		for _, c := range co.chunks {
			if c.SeqID == co.splitSeq && !c.SplitPiece {
				return false // base piece still uncommitted
			}
		}
		return true
	}
	return len(co.chunks) > 0 && co.chunks[0].SplitPiece
}

// advanceToken moves the tracked token to the next live processor after
// p.
func (e *Engine) advanceToken(p int) {
	n := e.Cfg.NProcs
	for i := 0; i < n; i++ {
		p = (p + 1) % n
		if !e.cores[p].haltDone {
			break
		}
	}
	e.tokenTrack = p
}

// checkpointing reports whether the run records checkpoints.
func (e *Engine) checkpointing() bool {
	return e.CheckpointEvery > 0 && e.OnCheckpoint != nil && e.Replay == nil
}

// maybeCheckpoint captures a periodic checkpoint (record mode only)
// after the commit occupying slot appliedSlots-1 has been applied.
func (e *Engine) maybeCheckpoint(appliedSlots uint64) {
	if !e.checkpointing() {
		return
	}
	if appliedSlots > 0 && appliedSlots%e.CheckpointEvery == 0 && appliedSlots != e.lastCkptAt {
		e.lastCkptAt = appliedSlots
		e.OnCheckpoint(e.capture(appliedSlots))
	}
}

// squashConflicting squashes, on every processor other than committer,
// the oldest uncommitted chunk conflicting with the committed write set
// and everything younger than it.
func (e *Engine) squashConflicting(committer int, w *signature.Sig, wlines []uint32) {
	for _, co := range e.cores {
		if co.proc == committer {
			continue
		}
		idx := -1
		for i, d := range co.chunks {
			if d.ConflictsWith(w, wlines, e.ExactConflicts) {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		if !e.ExactConflicts && !co.chunks[idx].ConflictsWith(w, wlines, true) {
			e.stats.SpuriousSquashes++
		}
		e.squashFrom(co, idx, committer)
	}
}

func (e *Engine) squashFrom(co *core, idx int, committer int) {
	dying := co.chunks[idx:]
	victim := dying[0]
	inDying := func(tag any) bool {
		for _, d := range dying {
			if tag == d {
				return true
			}
		}
		return false
	}
	e.arb.Withdraw(e.now, inDying)
	by := committer
	if by < 0 {
		by = DMAProc(e.Cfg.NProcs)
	}
	for _, d := range dying {
		co.wasted += uint64(d.Insts)
		co.squashes++
		e.stats.Squashes++
		e.Obs.OnSquash(co.proc, d.SeqID, d.Insts, committer)
		if e.gtr != nil {
			e.gtr.Emit(trace.Event{Time: e.now, Proc: int32(co.proc), Kind: trace.ChunkSquash,
				Seq: d.SeqID, A: uint64(d.Insts), B: uint64(by)})
		}
		e.releaseChunk(d)
	}
	co.chunks = co.chunks[:idx]
	co.cur = nil
	co.pendingIO = nil // the I/O point rolls back with the checkpoint
	co.splitRemain = 0
	// Chunk sequence numbers roll back with the squash: the re-executed
	// chunks must reuse the squashed ones' seqIDs, or every seqID-keyed
	// log (CS, interrupt, size) desynchronizes from replay.
	co.nextSeq = victim.SeqID + 1
	// Cancel tentative interrupt deliveries the rollback wiped out. A
	// delivery at the victim's own boundary survives — it is part of the
	// victim's checkpoint and re-executes with it.
	for i, ti := range co.tent {
		if ti.seq > victim.SeqID {
			if e.Replay == nil {
				co.irqIdx = ti.savedIrq
			}
			co.tent = co.tent[:i]
			break
		}
	}

	// Restore and restart the oldest squashed logical chunk.
	co.ts = victim.Checkpoint
	co.tm.Reset()
	co.tm.AdvanceTo(e.now)
	co.tm.Clock += e.Cfg.SquashPenalty

	target := victim.Target
	budget := victim.BudgetReason
	restarts := victim.Restarts + 1
	if e.Replay == nil && !e.PicoLog && restarts >= e.Cfg.CollisionLimit && target > 32 {
		// Repeated chunk collision: progressively reduce the chunk until
		// it can commit (paper §4.2.3). The committed size is then
		// non-deterministic and CS-logged.
		target /= 2
		budget = chunk.Collision
	}
	nc := e.newChunk(co, victim.SeqID, co.ts, target)
	nc.Restarts = restarts
	nc.Urgent = victim.Urgent
	nc.SplitPiece = victim.SplitPiece
	nc.BudgetReason = budget
	nc.IOAtStart = victim.IOAtStart
	co.chunks = append(co.chunks, nc)
	co.cur = nc

	co.blocked = notBlocked
	e.reschedule(co)
}

// FNV-1a constants (hash/fnv's algorithm, inlined on the commit path).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// chunkAlive reports whether c is still one of its processor's
// uncommitted chunks (it may have been squashed and replaced).
func (e *Engine) chunkAlive(c *chunk.Chunk) bool {
	for _, d := range e.cores[c.Proc].chunks {
		if d == c {
			return true
		}
	}
	return false
}

// DebugState renders the engine's per-core state — a diagnostic for
// replay-divergence investigations (which core is blocked on what, how
// far each chunk sequence has progressed).
func (e *Engine) DebugState() string {
	s := fmt.Sprintf("t=%d commits=%d pending=%d inflight=%d exec=%d\n",
		e.now, e.arb.GlobalCommits(), e.arb.Pending(), e.arb.InFlight(), e.execCount())
	if head, ok := e.policy.Head(e.arb.GlobalCommits()); ok {
		s += fmt.Sprintf("policy head: proc %d\n", head)
	}
	for _, co := range e.cores {
		cur := "-"
		if co.cur != nil {
			cur = fmt.Sprintf("seq=%d insts=%d/%d restarts=%d", co.cur.SeqID, co.cur.Insts, co.cur.Target, co.cur.Restarts)
		}
		s += fmt.Sprintf("  p%d clock=%d nextSeq=%d chunks=%d blocked=%d halted=%v haltDone=%v squashes=%d useful=%d wasted=%d cur[%s]\n",
			co.proc, co.tm.Clock, co.nextSeq, len(co.chunks), co.blocked, co.ts.Halted, co.haltDone, co.squashes, co.useful, co.wasted, cur)
	}
	return s
}

// Arbiter exposes the commit arbiter for Table 6 statistics.
func (e *Engine) Arbiter() *arbiter.Arbiter { return e.arb }

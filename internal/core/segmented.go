package core

import (
	"fmt"
	"sort"
	"sync"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/chunk"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/runner"
	"delorean/internal/sim"
	"delorean/internal/trace"
)

// Segmented (checkpoint-partitioned) parallel replay.
//
// A recording with k periodic checkpoints splits into k+1 independent
// intervals: [start, cut_0), [cut_0, cut_1), …, [cut_{k-1}, end). Each
// interval is a self-contained replay problem — the checkpoint supplies
// its starting memory image and per-processor resume state, the log
// suffix supplies its ordering and inputs, and the engine's StopAtCommit
// halts it exactly at the next cut — so the intervals fan out across a
// bounded worker pool and replay concurrently. The whole-recording
// verdict is stitched from the per-interval checks:
//
//   - interval i < k must stop cleanly at cut_i with the recorded
//     interval fingerprint (IntervalFingerprint, covering exactly
//     [cut_{i-1}, cut_i)) and a memory image matching checkpoint i's;
//   - the final interval must converge with the last checkpoint's
//     suffix fingerprint and the recording's final memory hash.
//
// Success therefore implies exactly what a sequential Replay verifies —
// every committed chunk stream, input stream and the final memory state
// — and failure is attributed to the earliest diverging interval
// (DivergenceError.Interval), independent of worker count or
// scheduling: workers never share mutable state (each has its own
// engine, memory and log cursors; materialized checkpoint images are
// shared read-only), so each interval's outcome is a pure function of
// the recording, and the earliest failing index is deterministic.
type segOut struct {
	res ReplayResult
	err error
	// start/end delimit the interval's commit-slot span (end is the
	// actually reached slot for the final, unbounded interval).
	start, end uint64
}

// replaySegmented replays a checkpointed recording as k+1 concurrent
// interval replays on opts.ReplayParallel workers. The caller (Replay)
// has already validated the recording and matched cfg/progs against it.
//
// Safe under concurrent replaySegmented calls on the same recording:
// each segPool scratch is exclusively owned while checked out, the log
// view holds per-call cursors over the read-only logs, and checkpoint
// materialization goes through the recording's locked LRU.
func replaySegmented(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions) (ReplayResult, error) {
	k := len(rec.Checkpoints)
	if err := validateCheckpointProcs(rec, progs); err != nil {
		return ReplayResult{}, err
	}
	view := newLogView(rec)
	budget := cfg.MaxInstsOrDefault()

	// Workers pool the functional memory's backing map across intervals
	// and across replays (each interval's engine draws its cache
	// hierarchy from sim's shared pool): engine construction, not
	// interval execution, otherwise dominates replay of finely
	// checkpointed recordings. Reuse is observation-equivalent to fresh
	// state (Memory.Restore).
	outs, _ := runner.Map(opts.ReplayParallel, k+1, func(i int) (segOut, error) {
		// Queued intervals behind a cancellation return fast without
		// touching an engine; running ones stop via Engine.Cancel inside
		// replayInterval. Either way the interval reports the context's
		// error, and error selection below still picks the earliest
		// interval's.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return segOut{err: cancelledErr("segmented replay", opts.Ctx)}, nil
		}
		s, _ := segPool.Get().(*segScratch)
		if s == nil {
			s = &segScratch{mem: mem.New()}
		}
		out := replayInterval(rec, cfg, progs, opts, view, budget, i, s)
		segPool.Put(s)
		return out, nil
	})

	// Workers ran traceless; narrate the segment spans (and the earliest
	// divergence, if any) onto the timeline serially, in interval order.
	if opts.Trace != nil {
		g := opts.Trace.Global()
		for i, o := range outs {
			ok := uint64(0)
			if o.err == nil {
				ok = 1
			}
			g.Emit(trace.Event{Time: o.start, Proc: -1, Kind: trace.ReplaySegment,
				Seq: uint64(i), A: o.start, B: o.end, C: ok})
		}
	}
	for _, o := range outs {
		if o.err != nil {
			if derr, isDiv := o.err.(*DivergenceError); isDiv {
				noteDivergence(opts.Trace, o.res.Stats.Cycles, derr)
			}
			return o.res, o.err
		}
	}

	// Every interval reproduced its slice of the recording, so the
	// replay as a whole reproduced the recording: report the recorded
	// fingerprint and memory hash (interval fingerprint chains start
	// fresh at each cut and do not compose into the whole-run chain).
	// Stats aggregate over intervals in index order — identical at every
	// worker count, but not cycle-comparable to a sequential replay
	// (each interval's makespan starts at zero).
	agg := bulksc.Stats{
		Converged: true,
		TruncBy:   make(map[chunk.TruncReason]uint64),
		PerProc:   make([]bulksc.ProcStats, rec.NProcs),
	}
	for _, o := range outs {
		st := o.res.Stats
		agg.Cycles += st.Cycles
		agg.Insts += st.Insts
		agg.WastedInsts += st.WastedInsts
		agg.MemOps += st.MemOps
		agg.IOOps += st.IOOps
		agg.Interrupts += st.Interrupts
		agg.DMAs += st.DMAs
		agg.Chunks += st.Chunks
		agg.Squashes += st.Squashes
		agg.SpuriousSquashes += st.SpuriousSquashes
		agg.StallCycles += st.StallCycles
		agg.SlotStallCycles += st.SlotStallCycles
		agg.TrafficBytes += st.TrafficBytes
		for r, c := range st.TruncBy {
			agg.TruncBy[r] += c
		}
		for p := range st.PerProc {
			agg.PerProc[p].Cycles += st.PerProc[p].Cycles
			agg.PerProc[p].Insts += st.PerProc[p].Insts
			agg.PerProc[p].WastedInsts += st.PerProc[p].WastedInsts
			agg.PerProc[p].Chunks += st.PerProc[p].Chunks
			agg.PerProc[p].Squashes += st.PerProc[p].Squashes
			agg.PerProc[p].SlotStallCycles += st.PerProc[p].SlotStallCycles
		}
	}
	return ReplayResult{Stats: agg, Fingerprint: rec.Fingerprint, MemHash: rec.FinalMemHash}, nil
}

// segScratch is one worker's reusable engine state: the functional
// memory, which outlives a single replay via segPool.
//
// memRec/memAt track what the scratch memory currently holds: image
// memAt of recording memRec (-1 is the initial memory, segMemUnknown
// nothing provable). A bounded interval that passes its end check
// leaves the memory exactly equal to its terminal checkpoint image —
// that is what the check proves — so the next interval this worker
// claims, always a later one under work-queue assignment, rolls the
// memory forward by applying the intervening checkpoint deltas in
// place instead of restoring a materialized image from scratch.
type segScratch struct {
	mem *mem.Memory

	memRec *Recording
	memAt  int
}

// segMemUnknown marks scratch memory with no provable image identity.
const segMemUnknown = -2

// segPool holds segScratch entries across segmented replays.
var segPool sync.Pool

// replayInterval replays interval i on its own engine and verifies it
// against the recording's interval targets. It never shares mutable
// state with other intervals; scratch is owned by the calling worker
// for the duration of the call.
func replayInterval(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions,
	view *logView, budget uint64, i int, s *segScratch) segOut {
	k := len(rec.Checkpoints)
	startSlot := uint64(0)
	if i > 0 {
		startSlot = rec.Checkpoints[i-1].Slot
	}
	stopSlot := uint64(0) // 0: unbounded, run to convergence
	if i < k {
		stopSlot = rec.Checkpoints[i].Slot
	}
	out := segOut{start: startSlot, end: stopSlot}

	memory := s.mem
	var resume *bulksc.Resume
	if i > 0 {
		resume = &bulksc.Resume{Procs: rec.Checkpoints[i-1].Procs, BaseCommits: startSlot}
	}
	// Establish the start state: image i-1 (the initial memory for
	// i == 0). A worker holding a proven earlier image of this recording
	// rolls forward in place through the intervening deltas —
	// O(delta volume) — and only otherwise restores a materialized image
	// — O(footprint).
	if s.memRec == rec && s.memAt >= -1 && s.memAt <= i-1 {
		for j := s.memAt + 1; j < i; j++ {
			memory.ApplyDelta(rec.Checkpoints[j].MemDelta)
		}
	} else if i == 0 {
		memory.Restore(rec.InitialMem)
	} else {
		img, err := rec.MaterializeCheckpoint(i - 1)
		if err != nil {
			out.err = err
			return out
		}
		memory.Restore(img)
	}
	// Unknown while the interval runs; re-proven by a passing end check.
	s.memRec, s.memAt = rec, segMemUnknown
	// A bounded interval starts at image i-1 by construction, so its end
	// check against image i reduces to the checkpoint's delta plus a
	// journal of the interval's own writes (Memory.EqualDelta) — no
	// materialization of image i, no footprint-sized scan. The final
	// interval checks FinalMemHash instead and needs no journal.
	if i < k {
		memory.BeginJournal()
	} else {
		memory.EndJournal()
	}

	var policy arbiter.Policy
	if rec.Mode == PicoLog {
		var slots []arbiter.SlotRef
		for _, e := range rec.Slots.Entries() {
			if e.Slot >= startSlot {
				slots = append(slots, arbiter.SlotRef{Slot: e.Slot, Proc: e.Proc})
			}
		}
		for _, e := range rec.DMA.Entries() {
			if e.Slot >= startSlot {
				slots = append(slots, arbiter.SlotRef{Slot: e.Slot, Proc: bulksc.DMAProc(rec.NProcs)})
			}
		}
		sort.Slice(slots, func(a, b int) bool { return slots[a].Slot < slots[b].Slot })
		if i == 0 {
			policy = arbiter.NewRoundRobinReplay(rec.NProcs, slots)
		} else {
			policy = arbiter.NewRoundRobinReplayAt(rec.NProcs, rec.Checkpoints[i-1].TokenAt, slots)
		}
	} else {
		policy = arbiter.NewLogOrder(rec.PI.Entries()[startSlot:])
	}

	src := view.source()
	if i > 0 {
		for p := 0; p < rec.NProcs; p++ {
			src.ioIdx[p] = rec.Checkpoints[i-1].Procs[p].IOConsumed
		}
		for src.dmaIdx < len(src.dma) && src.dma[src.dmaIdx].Slot < startSlot {
			src.dmaIdx++
		}
	}

	obs := &replayObserver{fp: newFingerprint(rec.NProcs), nprocs: rec.NProcs, ioByLog: true}
	eng := &bulksc.Engine{
		Cfg:            cfg,
		Progs:          progs,
		Mem:            memory,
		Obs:            obs,
		Policy:         policy,
		Replay:         src,
		Perturb:        opts.Perturb,
		ExactConflicts: opts.ExactConflicts,
		PicoLog:        rec.Mode == PicoLog,
		Resume:         resume,
		StopAtCommit:   stopSlot,
	}
	if opts.Ctx != nil {
		eng.Cancel = opts.Ctx.Done()
	}
	st := eng.Run()
	if st.Cancelled {
		// Scratch state stays pool-safe: memRec/memAt were already marked
		// unknown above, and Memory is restored on the next reuse.
		out.err = cancelledErr("segmented replay", opts.Ctx)
		return out
	}

	// Rebuild the interval's I/O chains from the log's recorded
	// consumption ranges (see replayObserver.ioByLog): an interval is
	// credited with exactly the values the recording attributes to it,
	// so a worker's harmless run-ahead at its stop boundary cannot skew
	// the fingerprint, while corrupted values still mismatch.
	for p := 0; p < rec.NProcs; p++ {
		lo := 0
		if i > 0 {
			lo = rec.Checkpoints[i-1].Procs[p].IOConsumed
		}
		hi := src.ioIdx[p]
		if i < k {
			hi = rec.Checkpoints[i].Procs[p].IOConsumed
		}
		var chain uint64
		for _, v := range view.io[p][lo:hi] {
			chain = mix(chain, v)
		}
		obs.fp.ioChain[p] = chain
	}

	// Bounded intervals defer the memory hash: their end check verifies
	// the terminal memory against checkpoint i's delta and the write
	// journal (see BeginJournal above) and hashes only to diagnose a
	// mismatch. The final interval checks FinalMemHash, so it hashes up
	// front.
	res := ReplayResult{Stats: st, Fingerprint: obs.fp.sum()}
	if i == k {
		res.MemHash = memory.Hash()
		out.end = startSlot + uint64(len(obs.stream))
	}
	out.res = res

	fail := func(d *DivergenceError) segOut {
		d.Interval = i
		out.err = d
		return out
	}
	if i < k {
		cp := &rec.Checkpoints[i]
		if !st.Stopped {
			if !st.Converged {
				return fail(rec.stallError(obs, st, budget, startSlot))
			}
			// The machine halted before reaching the cut: fewer commits
			// than the recording demands of this interval.
			if d := rec.divergence(obs, res, startSlot, cp.IntervalFingerprint, cp.IntervalChains, res.MemHash, true); d != nil {
				return fail(d)
			}
			return fail(&DivergenceError{Kind: "stall", Mode: rec.Mode,
				Slot: int64(startSlot) + int64(len(obs.stream)), Proc: -1, SeqID: -1,
				Detail: fmt.Sprintf("interval replay halted after %d commits, before the checkpoint cut at %d",
					startSlot+uint64(len(obs.stream)), cp.Slot)})
		}
		if res.Fingerprint == cp.IntervalFingerprint && memory.EqualDelta(cp.MemDelta) {
			// The passed check proves memory == image i exactly; record
			// that so this worker's next interval can roll forward.
			s.memAt = i
			return out
		}
		// Mismatch: materialize the full checkpoint image only now, to
		// hash both sides for the divergence report.
		img, err := rec.MaterializeCheckpoint(i)
		if err != nil {
			out.err = err
			return out
		}
		res.MemHash = memory.Hash()
		out.res = res
		if d := rec.divergence(obs, res, startSlot, cp.IntervalFingerprint, cp.IntervalChains, mem.HashSnapshot(img), true); d != nil {
			return fail(d)
		}
		return out
	}
	if !st.Converged {
		return fail(rec.stallError(obs, st, budget, startSlot))
	}
	last := &rec.Checkpoints[k-1]
	if d := rec.divergence(obs, res, startSlot, last.Fingerprint, last.ProcChains, rec.FinalMemHash, true); d != nil {
		return fail(d)
	}
	return out
}

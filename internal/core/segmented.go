package core

import (
	"fmt"

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
// engine, memory and log cursors, and rolls its memory to the image it
// starts from out of the read-only recording), so each interval's
// outcome is a pure function of the recording, and the earliest failing
// index is deterministic.
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
// each scratch is exclusively owned while checked out, and each interval
// reads the read-only logs through cursors of its own.
func replaySegmented(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions) (ReplayResult, error) {
	k := len(rec.Checkpoints)
	if err := validateCheckpointProcs(rec, progs); err != nil {
		return ReplayResult{}, err
	}

	// Workers recycle the functional memory's backing table across
	// intervals, and take it from mem's free list across replays (each
	// interval's engine draws its cache hierarchy from sim's free list):
	// engine construction, not interval execution, otherwise dominates
	// replay of finely checkpointed recordings. Reuse is
	// observation-equivalent to fresh state (Memory.Restore). An
	// interval takes scratch from this replay's own list first, where a
	// scratch still knows which image of rec it holds; its memory goes
	// back to mem's list when the replay ends, so no list keeps a
	// recording alive.
	var local runner.FreeList[*segScratch]
	outs, _ := runner.Map(opts.ReplayParallel, k+1, func(i int) (segOut, error) {
		// Queued intervals behind a cancellation return fast without
		// touching an engine; running ones stop via Engine.Cancel inside
		// replaySegment. Either way the interval reports the context's
		// error, and error selection below still picks the earliest
		// interval's.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return segOut{err: cancelledErr("segmented replay", opts.Ctx)}, nil
		}
		s, ok := local.Get()
		if !ok {
			s = &segScratch{mem: mem.Get()}
		}
		out := replaySegment(rec, cfg, progs, opts, i, s)
		local.Put(s)
		return out, nil
	})
	for s, ok := local.Get(); ok; s, ok = local.Get() {
		mem.Put(s.mem)
	}

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

// segScratch is one worker's reusable engine state for one replay: the
// functional memory, drawn from and handed back to mem's free list.
//
// memRec/memAt track what the scratch memory currently holds: image
// memAt of recording memRec (-1 is the initial memory, segMemUnknown
// nothing provable). A bounded interval that passes its end check
// leaves the memory exactly equal to its terminal checkpoint image —
// that is what the check proves — so the next interval this worker
// claims, always a later one under work-queue assignment, rolls the
// memory forward by applying the intervening checkpoint deltas in
// place instead of rolling the initial image forward from scratch.
type segScratch struct {
	mem *mem.Memory

	memRec *Recording
	memAt  int
}

// segMemUnknown marks scratch memory with no provable image identity.
const segMemUnknown = -2

// replaySegment replays interval i, [cut_{i-1}, cut_i), on its own
// engine and verifies it against the recording's interval targets. It
// never shares mutable state with other intervals; scratch is owned by
// the calling worker for the duration of the call.
func replaySegment(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions,
	i int, s *segScratch) segOut {
	k := len(rec.Checkpoints)
	from, to := i-1, i
	if i == k {
		to = -1 // the final interval runs to convergence
	}
	startSlot := rec.cutSlot(from)
	out := segOut{start: startSlot}
	if to >= 0 {
		out.end = rec.Checkpoints[to].Slot
	}

	memory := s.mem
	// Establish the start state: image i-1 (the initial memory for
	// i == 0). A worker holding a proven earlier image of this recording
	// rolls forward in place through the intervening deltas; otherwise
	// it rolls the initial image forward through deltas 0..i-1.
	if s.memRec == rec && s.memAt >= -1 && s.memAt <= from {
		for j := s.memAt + 1; j <= from; j++ {
			memory.ApplyDelta(rec.Checkpoints[j].MemDelta)
		}
	} else {
		rec.restoreImage(memory, from)
	}
	// Unknown while the interval runs; re-proven by a passing end check.
	s.memRec, s.memAt = rec, segMemUnknown
	// A bounded interval starts at image i-1 by construction, so its end
	// check against image i reduces to the checkpoint's delta plus a
	// journal of the interval's own writes (Memory.EqualDelta) — no
	// image i, no footprint-sized scan. The final
	// interval checks FinalMemHash instead and needs no journal.
	if to >= 0 {
		memory.BeginJournal()
	} else {
		memory.EndJournal()
	}

	obs, st, err := replayInterval(rec, cfg, progs, opts, memory, from, to, nil)
	if err != nil {
		out.err = err
		return out
	}
	if st.Cancelled {
		// Scratch state stays safe to reuse: memRec/memAt were already marked
		// unknown above, and Memory is restored on the next reuse.
		out.err = cancelledErr("segmented replay", opts.Ctx)
		return out
	}

	// Bounded intervals defer the memory hash: their end check verifies
	// the terminal memory against checkpoint i's delta and the write
	// journal (see BeginJournal above) and hashes only to diagnose a
	// mismatch. The final interval checks FinalMemHash, so it hashes up
	// front.
	res := ReplayResult{Stats: st, Fingerprint: obs.fp.sum()}
	if to < 0 {
		res.MemHash = memory.Hash()
		out.end = obs.slot()
	}
	out.res = res

	fail := func(d *DivergenceError) segOut {
		d.Interval = i
		out.err = d
		return out
	}
	if to < 0 {
		if d := rec.checkEnd(obs, res, cfg.MaxInstsOrDefault(), from); d != nil {
			return fail(d)
		}
		return out
	}
	cp := &rec.Checkpoints[to]
	if !st.Stopped {
		if !st.Converged {
			return fail(rec.stallError(obs, st, cfg.MaxInstsOrDefault()))
		}
		// The machine halted before reaching the cut: fewer commits
		// than the recording demands of this interval.
		if d := rec.divergence(obs, res, cp.IntervalFingerprint, cp.IntervalChains, res.MemHash); d != nil {
			return fail(d)
		}
		return fail(&DivergenceError{Kind: "stall", Mode: rec.Mode,
			Slot: int64(obs.slot()), Proc: -1, SeqID: -1,
			Detail: fmt.Sprintf("interval replay halted after %d commits, before the checkpoint cut at %d",
				obs.slot(), cp.Slot)})
	}
	if res.Fingerprint == cp.IntervalFingerprint && memory.EqualDelta(cp.MemDelta) {
		// The passed check proves memory == image i exactly; record
		// that so this worker's next interval can roll forward.
		s.memAt = i
		return out
	}
	// Mismatch: build checkpoint i's full image only now, to hash both
	// sides for the divergence report.
	want := mem.New()
	rec.restoreImage(want, i)
	res.MemHash = memory.Hash()
	out.res = res
	if d := rec.divergence(obs, res, cp.IntervalFingerprint, cp.IntervalChains, want.Hash()); d != nil {
		return fail(d)
	}
	return out
}

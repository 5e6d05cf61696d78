package core

import (
	"errors"
	"fmt"
)

// ErrCorruptLog reports a recording whose serialized form or log
// contents are malformed: bad magic, truncated container, implausible
// header fields, out-of-range log entries, or internally inconsistent
// log lengths. Use errors.Is to test for it.
var ErrCorruptLog = errors.New("corrupt recording log")

// ErrCheckpointRange reports a checkpoint index outside the recording's
// checkpoint list — an API usage error, distinct from both corruption
// (ErrCorruptLog) and replay divergence (DivergenceError). Use errors.Is
// to test for it.
var ErrCheckpointRange = errors.New("checkpoint index out of range")

// ErrNotConverged reports that a recorded run hit its instruction budget
// before all threads halted. Use errors.Is to test for it.
var ErrNotConverged = errors.New("core: execution did not converge within the instruction budget")

// checkpointRange builds an ErrCheckpointRange-wrapped error.
func checkpointRange(idx, n int) error {
	return fmt.Errorf("core: %w: checkpoint %d, recording has %d", ErrCheckpointRange, idx, n)
}

// DivergenceError reports that a replay ran against a well-formed
// recording but failed to reproduce it. The fields localize the first
// detected divergence as precisely as the recording's logs allow;
// unknown coordinates are -1.
//
// Kinds:
//
//   - "stall": the replay could not follow the commit-order log to the
//     end — the processor the log names next never produced a
//     committable chunk (typical of a reordered or truncated PI log).
//   - "order": a committed chunk's processor disagrees with the PI log.
//     A backstop that a real replay does not reach: the replay arbiter
//     grants only the processor the PI log names next
//     (arbiter.LogOrder), so a reordered log shows as "stall" or
//     "state". The check stays so that a commit-order fault in the
//     engine would still fail the replay.
//   - "size": a committed chunk's size disagrees with the size/CS log.
//   - "state": the commit order was followed but the execution's
//     per-processor chunk/input streams or the final memory state
//     differ from the recording (typical of corrupted log payloads or
//     initial-memory damage).
type DivergenceError struct {
	Kind string
	Mode Mode
	// Slot is the logical commit index (PI-log position; split pieces
	// share their logical chunk's slot) of the first divergence, or -1.
	Slot int64
	// Proc is the core of the first divergent chunk, or -1. The DMA
	// pseudo-processor (NProcs) can appear here.
	Proc int
	// SeqID is the divergent chunk's per-core sequence number, or -1.
	SeqID int64
	// Interval is the checkpoint-delimited interval the divergence was
	// localized to by segmented replay (always the earliest diverging
	// interval, deterministically), or -1 for a non-segmented replay.
	Interval int
	// Detail is a human-readable explanation.
	Detail string
}

// Error implements error.
func (e *DivergenceError) Error() string {
	s := fmt.Sprintf("core: %s replay divergence (%s)", e.Mode, e.Kind)
	if e.Interval >= 0 {
		s += fmt.Sprintf(" in interval %d", e.Interval)
	}
	if e.Slot >= 0 {
		s += fmt.Sprintf(" at commit slot %d", e.Slot)
	}
	if e.Proc >= 0 {
		s += fmt.Sprintf(", core %d", e.Proc)
	}
	if e.SeqID >= 0 {
		s += fmt.Sprintf(", chunk %d", e.SeqID)
	}
	return s + ": " + e.Detail
}

// corrupt builds an ErrCorruptLog-wrapped error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrCorruptLog, fmt.Sprintf(format, args...))
}

// Validate checks the recording's structural invariants: every log
// present for its mode, entry values within their domains, and
// per-processor log lengths consistent with the PI log. Replay calls it
// before executing so malformed logs fail with a typed ErrCorruptLog
// instead of dragging the engine into undefined behavior.
func (r *Recording) Validate() error {
	if r.Mode < OrderSize || r.Mode > PicoLog {
		return corrupt("unknown mode %d", int(r.Mode))
	}
	if r.NProcs <= 0 || r.ChunkSize <= 0 {
		return corrupt("implausible header (%d procs, chunk %d)", r.NProcs, r.ChunkSize)
	}
	if r.Mode == PicoLog {
		if r.PI != nil {
			return corrupt("PicoLog recording carries a PI log")
		}
	} else {
		if r.PI == nil {
			return corrupt("%s recording without a PI log", r.Mode)
		}
		dma := r.NProcs
		for i, p := range r.PI.Entries() {
			if p < 0 || p > dma {
				return corrupt("PI entry %d names processor %d of %d", i, p, r.NProcs)
			}
		}
	}
	if len(r.CS) != r.NProcs || len(r.Intr) != r.NProcs || len(r.IO) != r.NProcs {
		return corrupt("per-processor log count mismatch (CS %d, Intr %d, IO %d for %d procs)",
			len(r.CS), len(r.Intr), len(r.IO), r.NProcs)
	}
	for p, cs := range r.CS {
		var prev uint64
		for i, e := range cs.Entries() {
			if i > 0 && e.SeqID <= prev {
				return corrupt("proc %d CS entries out of order at %d", p, i)
			}
			prev = e.SeqID
			if e.Size < 1 || e.Size > r.ChunkSize {
				return corrupt("proc %d CS entry %d has size %d (chunk size %d)", p, i, e.Size, r.ChunkSize)
			}
		}
	}
	if r.Mode == OrderSize {
		if len(r.Sizes) != r.NProcs {
			return corrupt("Order&Size recording with %d size logs for %d procs", len(r.Sizes), r.NProcs)
		}
		// Every PI entry for a processor consumed one size-log entry.
		perProc := make([]int, r.NProcs+1)
		for _, p := range r.PI.Entries() {
			perProc[p]++
		}
		for p, sl := range r.Sizes {
			if sl.Len() != perProc[p] {
				return corrupt("proc %d has %d PI entries but %d size entries", p, perProc[p], sl.Len())
			}
			for i, s := range sl.Sizes() {
				if s < 1 || s > r.ChunkSize {
					return corrupt("proc %d size entry %d is %d (chunk size %d)", p, i, s, r.ChunkSize)
				}
			}
		}
	} else if len(r.Sizes) != 0 {
		return corrupt("%s recording carries Order&Size size logs", r.Mode)
	}
	if r.DMA == nil || r.Slots == nil {
		return corrupt("missing DMA or slot log")
	}
	for p, il := range r.Intr {
		var prev uint64
		for i, e := range il.Entries() {
			if i > 0 && e.SeqID <= prev {
				return corrupt("proc %d interrupt entries out of order at %d", p, i)
			}
			prev = e.SeqID
		}
	}
	var prevSlot uint64
	for i, e := range r.Slots.Entries() {
		if i > 0 && e.Slot <= prevSlot {
			return corrupt("slot entries out of order at %d", i)
		}
		prevSlot = e.Slot
		if e.Proc < 0 || e.Proc >= r.NProcs {
			return corrupt("slot entry %d names processor %d of %d", i, e.Proc, r.NProcs)
		}
	}
	if n := len(r.ProcChains); n != 0 && n != r.NProcs {
		return corrupt("%d per-processor chain digests for %d procs", n, r.NProcs)
	}
	return r.validateCheckpoints()
}

// validateCheckpoints checks the checkpoint section's structural
// invariants against the recording's logs. Segmented replay slices logs
// and fans out workers based on these fields, so a structurally corrupt
// checkpoint must fail here — identically for sequential and segmented
// replay — rather than panic a worker.
func (r *Recording) validateCheckpoints() error {
	cps := r.Checkpoints
	var prevCut uint64
	for i := range cps {
		cp := &cps[i]
		if cp.Slot == 0 || cp.Slot <= prevCut {
			return corrupt("checkpoint %d cut at slot %d not after previous cut %d", i, cp.Slot, prevCut)
		}
		prevCut = cp.Slot
		if r.PI != nil && cp.Slot > uint64(len(r.PI.Entries())) {
			return corrupt("checkpoint %d cut at slot %d beyond the %d-entry PI log", i, cp.Slot, len(r.PI.Entries()))
		}
		if len(cp.Procs) != r.NProcs {
			return corrupt("checkpoint %d carries %d processor states for %d procs", i, len(cp.Procs), r.NProcs)
		}
		if cp.TokenAt < -1 || cp.TokenAt >= r.NProcs {
			return corrupt("checkpoint %d token holder %d of %d procs", i, cp.TokenAt, r.NProcs)
		}
		for p, pc := range cp.Procs {
			if pc.IOConsumed < 0 || pc.IOConsumed > len(r.IO[p].Values()) {
				return corrupt("checkpoint %d proc %d consumed %d of %d I/O values", i, p, pc.IOConsumed, len(r.IO[p].Values()))
			}
			if i > 0 && pc.IOConsumed < cps[i-1].Procs[p].IOConsumed {
				return corrupt("checkpoint %d proc %d I/O consumption regressed (%d after %d)",
					i, p, pc.IOConsumed, cps[i-1].Procs[p].IOConsumed)
			}
		}
		if n := len(cp.ProcChains); n != 0 && n != r.NProcs {
			return corrupt("checkpoint %d has %d chain digests for %d procs", i, n, r.NProcs)
		}
		if n := len(cp.IntervalChains); n != 0 && n != r.NProcs {
			return corrupt("checkpoint %d has %d interval chain digests for %d procs", i, n, r.NProcs)
		}
	}
	return nil
}

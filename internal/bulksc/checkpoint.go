package bulksc

import (
	"delorean/internal/isa"
)

// Checkpoint is a consistent cut of the machine at a global commit count
// (the paper's GCC): the committed memory image plus, per processor, the
// architectural state at its last committed chunk boundary. Replay of the
// interval from this point (Appendix B's I(n, m)) restarts each
// processor from its saved state; chunks that were in flight at the cut
// simply re-execute.
type Checkpoint struct {
	// Slot is the global commit count the checkpoint was taken at.
	Slot uint64
	// MemDelta holds only the words whose committed value changed since
	// the previous checkpoint (or since the initial memory for the first
	// one). A zero value records a word that became zero. The full image
	// at the cut is the fold of the initial memory and every delta up to
	// and including this one — delta encoding is what keeps dense
	// checkpointing affordable, per-checkpoint cost scaling with interval
	// write footprint rather than total memory footprint.
	MemDelta map[uint32]uint64
	// Procs holds each processor's resume state.
	Procs []ProcCheckpoint
	// TokenAt is the round-robin token holder at the cut (PicoLog), or
	// -1 for unordered policies.
	TokenAt int
}

// ProcCheckpoint is one processor's slice of a Checkpoint.
type ProcCheckpoint struct {
	// State is the architectural state at the processor's last committed
	// chunk boundary (the oldest in-flight chunk's register checkpoint,
	// or the live state if nothing was in flight).
	State isa.ThreadState
	// NextSeq is the chunk sequence number execution resumes at.
	NextSeq uint64
	// IOConsumed counts the uncached I/O loads the processor had
	// performed — the replayer's offset into the I/O log.
	IOConsumed int
	// Done marks a processor that had fully halted and committed.
	Done bool
	// PendingIntr, when non-nil, is a tentative interrupt delivered at
	// the resume chunk's boundary whose finalization (commit-time
	// logging) is still owed. Its architectural effect is already inside
	// State; this re-arms the bookkeeping so the interval's event streams
	// match.
	PendingIntr *PendingIntr
}

// PendingIntr mirrors a tentative interrupt delivery across a
// checkpoint cut.
type PendingIntr struct {
	Seq    uint64
	Type   int64
	Data   int64
	Urgent bool
}

// capture builds a checkpoint of the current engine state, called inside
// applyCommit when exactly appliedSlots commits' effects are in memory.
// (The arbiter's grant counter — and its policy state — can run ahead
// within a grant batch, so the applied count and the engine-tracked
// token are the consistent values.) The memory delta is read out of the
// memory's write journal, restarted at every checkpoint: each address
// stored to since the last one, with its current committed value (zero
// when the word was deleted).
func (e *Engine) capture(appliedSlots uint64) Checkpoint {
	delta := e.Mem.Written()
	e.Mem.BeginJournal()
	cp := Checkpoint{
		Slot:     appliedSlots,
		MemDelta: delta,
		TokenAt:  -1,
	}
	if e.PicoLog {
		cp.TokenAt = e.tokenTrack
	}
	for _, co := range e.cores {
		pc := ProcCheckpoint{Done: co.haltDone}
		switch {
		case len(co.chunks) > 0:
			oldest := co.chunks[0]
			pc.State = oldest.Checkpoint
			pc.NextSeq = oldest.SeqID
			pc.IOConsumed = oldest.IOAtStart
			if len(co.tent) > 0 && co.tent[0].seq == oldest.SeqID {
				t := co.tent[0]
				pc.PendingIntr = &PendingIntr{Seq: t.seq, Type: t.typ, Data: t.data, Urgent: t.urgent}
			}
		default:
			pc.State = co.ts
			pc.NextSeq = co.nextSeq
			pc.IOConsumed = co.ioCount
		}
		cp.Procs = append(cp.Procs, pc)
	}
	return cp
}

// Resume seeds an engine with a checkpoint's processor states: execution
// starts from the cut rather than from the programs' entry points. The
// caller restores the memory image and offsets the log sources itself.
type Resume struct {
	Procs []ProcCheckpoint
	// BaseCommits presets the arbiter's global commit counter so that
	// absolute commit-slot references (PicoLog DMA and urgent slots)
	// resolve.
	BaseCommits uint64
}

package core

import (
	"fmt"
	"sort"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

// IntervalCheckpoint is a periodic system checkpoint taken during
// recording (paper Appendix B's GCC=n cut), plus the fingerprint of the
// interval from the cut to the end of the recording.
type IntervalCheckpoint struct {
	bulksc.Checkpoint
	// Fingerprint covers only the interval [Slot, end): a replay started
	// from this checkpoint must reproduce it.
	Fingerprint uint64
	// ProcChains are the per-processor slices of the interval
	// fingerprint (see Recording.ProcChains).
	ProcChains []uint64
	// IntervalFingerprint covers the bounded interval [prevSlot, Slot) —
	// from the previous cut (or the start of the recording) up to this
	// cut. Segmented replay checks each worker's interval against it.
	IntervalFingerprint uint64
	// IntervalChains are the per-processor slices of IntervalFingerprint.
	IntervalChains []uint64
}

// validateCheckpointProcs checks every checkpointed processor state
// against the programs the replay will actually run. Recording.Validate
// cannot do this — recordings do not store programs — yet resuming a
// core at a control-flow target outside its program would panic the
// interpreter, so a mismatch is diagnosed here as log corruption.
func validateCheckpointProcs(rec *Recording, progs []*isa.Program) error {
	for i := range rec.Checkpoints {
		for p := range rec.Checkpoints[i].Procs {
			st := &rec.Checkpoints[i].Procs[p].State
			n := len(progs[p].Insts)
			if st.PC < 0 || st.PC >= n || st.IntrPC < 0 || st.IntrPC >= n {
				return fmt.Errorf("%w: checkpoint %d resumes proc %d at PC %d (intr PC %d), program has %d instructions",
					ErrCorruptLog, i, p, st.PC, st.IntrPC, n)
			}
		}
	}
	return nil
}

// ReplayFromCheckpoint replays the interval from rec.Checkpoints[idx] to
// the end of the recording: memory is restored from the checkpoint,
// processors resume from their saved chunk boundaries, and the log
// suffixes drive ordering and inputs. Recording with checkpoints
// requires RecordOptions.CheckpointEvery > 0.
//
// Stratified interval replay is not supported: stratum boundaries do not
// generally align with checkpoint slots.
func ReplayFromCheckpoint(rec *Recording, idx int, cfg sim.Config, progs []*isa.Program, opts ReplayOptions) (ReplayResult, error) {
	if err := rec.EnsureCheckpoints(opts.ReplayParallel); err != nil {
		return ReplayResult{}, err
	}
	if idx < 0 || idx >= len(rec.Checkpoints) {
		return ReplayResult{}, checkpointRange(idx, len(rec.Checkpoints))
	}
	if opts.UseStratified {
		return ReplayResult{}, fmt.Errorf("core: stratified interval replay is not supported")
	}
	if err := rec.Validate(); err != nil {
		return ReplayResult{}, err
	}
	if cfg.NProcs != rec.NProcs {
		return ReplayResult{}, fmt.Errorf("core: replay with %d procs, recording has %d", cfg.NProcs, rec.NProcs)
	}
	if len(progs) != rec.NProcs {
		return ReplayResult{}, fmt.Errorf("core: replay with %d programs, recording has %d procs", len(progs), rec.NProcs)
	}
	if err := validateCheckpointProcs(rec, progs); err != nil {
		return ReplayResult{}, err
	}
	cp := rec.Checkpoints[idx]
	cfg.ChunkSize = rec.ChunkSize

	img, err := rec.MaterializeCheckpoint(idx)
	if err != nil {
		return ReplayResult{}, err
	}
	memory := mem.New()
	memory.Restore(img)

	var policy arbiter.Policy
	if rec.Mode == PicoLog {
		var slots []arbiter.SlotRef
		for _, e := range rec.Slots.Entries() {
			if e.Slot >= cp.Slot {
				slots = append(slots, arbiter.SlotRef{Slot: e.Slot, Proc: e.Proc})
			}
		}
		for _, e := range rec.DMA.Entries() {
			if e.Slot >= cp.Slot {
				slots = append(slots, arbiter.SlotRef{Slot: e.Slot, Proc: bulksc.DMAProc(rec.NProcs)})
			}
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i].Slot < slots[j].Slot })
		policy = arbiter.NewRoundRobinReplayAt(rec.NProcs, cp.TokenAt, slots)
	} else {
		entries := rec.PI.Entries()
		if cp.Slot > uint64(len(entries)) {
			return ReplayResult{}, fmt.Errorf("core: checkpoint slot %d beyond PI log (%d)", cp.Slot, len(entries))
		}
		policy = arbiter.NewLogOrder(entries[cp.Slot:])
	}

	src := newLogSource(rec)
	for p := 0; p < rec.NProcs; p++ {
		src.ioIdx[p] = cp.Procs[p].IOConsumed
	}
	// Skip DMA entries already applied before the cut.
	for src.dmaIdx < len(src.dma) && src.dma[src.dmaIdx].Slot < cp.Slot {
		src.dmaIdx++
	}

	obs := &replayObserver{fp: newFingerprint(rec.NProcs), nprocs: rec.NProcs}
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
		Trace:          opts.Trace,
		Resume:         &bulksc.Resume{Procs: cp.Procs, BaseCommits: cp.Slot},
	}
	if opts.Ctx != nil {
		eng.Cancel = opts.Ctx.Done()
	}
	st := eng.Run()
	res := ReplayResult{Stats: st, Fingerprint: obs.fp.sum(), MemHash: memory.Hash()}
	if st.Cancelled {
		return res, cancelledErr("interval replay", opts.Ctx)
	}
	if !st.Converged {
		derr := rec.stallError(obs, st, cfg.MaxInstsOrDefault(), cp.Slot)
		noteDivergence(opts.Trace, st.Cycles, derr)
		return res, derr
	}
	if div := rec.divergence(obs, res, cp.Slot, cp.Fingerprint, cp.ProcChains, rec.FinalMemHash, true); div != nil {
		noteDivergence(opts.Trace, st.Cycles, div)
		return res, div
	}
	return res, nil
}

// IntervalMatch reports which sides of an interval-replay comparison
// held: the interval fingerprint from the checkpoint cut, and the final
// architectural memory state.
type IntervalMatch struct {
	FingerprintOK bool
	MemHashOK     bool
}

// OK reports whether both sides matched.
func (m IntervalMatch) OK() bool { return m.FingerprintOK && m.MemHashOK }

// MatchInterval compares an interval replay's result against the
// recorded interval [Checkpoints[idx].Slot, end), reporting which side
// mismatched rather than one opaque boolean. Returns
// ErrCheckpointRange if idx is out of range.
func (r ReplayResult) MatchInterval(rec *Recording, idx int) (IntervalMatch, error) {
	if idx < 0 || idx >= len(rec.Checkpoints) {
		return IntervalMatch{}, checkpointRange(idx, len(rec.Checkpoints))
	}
	return IntervalMatch{
		FingerprintOK: r.Fingerprint == rec.Checkpoints[idx].Fingerprint,
		MemHashOK:     r.MemHash == rec.FinalMemHash,
	}, nil
}

// MatchesInterval reports whether an interval replay reproduced the
// recorded interval. See MatchInterval for a diagnosis of which side
// failed.
func (r ReplayResult) MatchesInterval(rec *Recording, idx int) bool {
	m, err := r.MatchInterval(rec, idx)
	return err == nil && m.OK()
}

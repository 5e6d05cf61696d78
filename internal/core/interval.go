package core

import (
	"fmt"
	"sort"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/stratifier"
	"delorean/internal/trace"
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
	if err := rec.Materialize(opts.ReplayParallel); err != nil {
		return ReplayResult{}, err
	}
	if idx < 0 || idx >= len(rec.Checkpoints) {
		return ReplayResult{}, checkpointRange(idx, len(rec.Checkpoints))
	}
	if err := checkReplay(rec, cfg, progs); err != nil {
		return ReplayResult{}, err
	}
	if err := validateCheckpointProcs(rec, progs); err != nil {
		return ReplayResult{}, err
	}
	return replayToEnd(rec, cfg, progs, opts, idx)
}

// cutSlot is checkpoint i's commit slot; i == -1 is the start of the
// recording, slot 0.
func (rec *Recording) cutSlot(i int) uint64 {
	if i < 0 {
		return 0
	}
	return rec.Checkpoints[i].Slot
}

// replayInterval is the one replay mechanism (paper Appendix B): it
// restarts the machine at checkpoint from (-1: the start of the
// recording), enforces the log suffix from that cut, and stops at
// checkpoint to's cut (-1: runs to convergence). memory must already
// hold the starting image. The caller owns the verdict; the returned
// observer's fingerprint is complete.
//
// I/O is hashed from the log, not as it fires: each processor's chain
// covers its recorded consumption range for the interval, [consumed at
// from, consumed at to) — or up to the replay's cursor when unbounded,
// which is exactly the values the engine consumed. A bounded run racing
// toward its stop cut can read I/O the recording attributes to the next
// interval (I/O fires between chunks, so its timing is not pinned by
// the ordering log); the log range keeps that harmless run-ahead out of
// the fingerprint, while corrupted values still mismatch.
func replayInterval(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions,
	memory *mem.Memory, from, to int, sink *trace.Sink) (*replayObserver, bulksc.Stats, error) {
	if opts.UseStratified && from >= 0 {
		return nil, bulksc.Stats{}, fmt.Errorf("core: stratified interval replay is not supported")
	}
	startSlot := rec.cutSlot(from)
	var policy arbiter.Policy
	switch {
	case rec.Mode == PicoLog:
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
		sort.Slice(slots, func(i, j int) bool { return slots[i].Slot < slots[j].Slot })
		token := 0
		if from >= 0 {
			token = rec.Checkpoints[from].TokenAt
		}
		policy = arbiter.NewRoundRobinReplayAt(rec.NProcs, token, slots)
	case opts.UseStratified:
		if rec.Stratified == nil {
			return nil, bulksc.Stats{}, fmt.Errorf("core: recording has no stratified PI log")
		}
		policy = stratifier.NewStratumOrder(rec.Stratified, rec.NProcs)
	default:
		policy = arbiter.NewLogOrder(rec.PI.Entries()[startSlot:])
	}

	src := &logSource{rec: rec, ioIdx: make([]int, rec.NProcs)}
	if from >= 0 {
		for p := range src.ioIdx {
			src.ioIdx[p] = rec.Checkpoints[from].Procs[p].IOConsumed
		}
	}
	// Skip DMA entries already applied before the cut.
	dma := rec.DMA.Entries()
	for src.dmaIdx < len(dma) && dma[src.dmaIdx].Slot < startSlot {
		src.dmaIdx++
	}
	ioFrom := append([]int(nil), src.ioIdx...)

	cfg.ChunkSize = rec.ChunkSize
	obs := newReplayObserver(rec, startSlot, !opts.UseStratified)
	eng := &bulksc.Engine{
		Cfg:     cfg,
		Progs:   progs,
		Mem:     memory,
		Obs:     obs,
		Policy:  policy,
		Replay:  src,
		Perturb: opts.Perturb,
		PicoLog: rec.Mode == PicoLog,
		Trace:   sink,
	}
	if from >= 0 {
		eng.Resume = &bulksc.Resume{Procs: rec.Checkpoints[from].Procs, BaseCommits: startSlot}
	}
	if to >= 0 {
		eng.StopAtCommit = rec.Checkpoints[to].Slot
	}
	if opts.Ctx != nil {
		eng.Cancel = opts.Ctx.Done()
	}
	st := eng.Run()

	for p := range obs.fp.ioChain {
		hi := src.ioIdx[p]
		if to >= 0 {
			hi = rec.Checkpoints[to].Procs[p].IOConsumed
		}
		var chain uint64
		for _, v := range rec.IO[p].Values()[ioFrom[p]:hi] {
			chain = mix(chain, v)
		}
		obs.fp.ioChain[p] = chain
	}
	return obs, st, nil
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

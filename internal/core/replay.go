package core

import (
	"context"
	"fmt"

	"delorean/internal/bulksc"
	"delorean/internal/dlog"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/trace"
)

// ReplayResult is the outcome of a deterministic replay.
type ReplayResult struct {
	Stats       bulksc.Stats
	Fingerprint uint64
	MemHash     uint64
}

// Matches reports whether the replay reproduced the recording: the same
// per-processor chunk streams and inputs (fingerprint) and the same final
// architectural memory state.
func (r ReplayResult) Matches(rec *Recording) bool {
	return r.Fingerprint == rec.Fingerprint && r.MemHash == rec.FinalMemHash
}

// logView is the immutable, shareable part of a Recording's replay
// inputs: truncation and interrupt lookups, I/O value slices and the
// DMA entry list. Building it walks every log once; segmented replay
// builds one view and hands each interval worker its own cursored
// logSource over it.
type logView struct {
	trunc []map[uint64]int
	intr  []map[uint64]dlog.IntrEntry
	io    [][]uint64
	dma   []dlog.DMAEntry
}

func newLogView(rec *Recording) *logView {
	v := &logView{dma: rec.DMA.Entries()}
	for p := 0; p < rec.NProcs; p++ {
		if rec.Mode == OrderSize {
			// Every chunk's size is logged; expose them all as
			// truncations so chunking follows the size log exactly.
			m := make(map[uint64]int, rec.Sizes[p].Len())
			for seq, sz := range rec.Sizes[p].Sizes() {
				m[uint64(seq)] = sz
			}
			v.trunc = append(v.trunc, m)
		} else {
			v.trunc = append(v.trunc, rec.CS[p].Lookup())
		}
		v.intr = append(v.intr, rec.Intr[p].Lookup())
		v.io = append(v.io, rec.IO[p].Values())
	}
	return v
}

// source returns a fresh cursored ReplaySource over the view.
func (v *logView) source() *logSource {
	return &logSource{logView: v, ioIdx: make([]int, len(v.io))}
}

// logSource adapts a Recording to the engine's ReplaySource: the shared
// immutable view plus this replay's consumption cursors.
type logSource struct {
	*logView
	ioIdx  []int
	dmaIdx int
}

func (s *logSource) Truncation(proc int, seqID uint64) (int, bool) {
	sz, ok := s.trunc[proc][seqID]
	return sz, ok
}

func (s *logSource) InterruptAt(proc int, seqID uint64) (int64, int64, bool, bool) {
	e, ok := s.intr[proc][seqID]
	if !ok {
		return 0, 0, false, false
	}
	return e.Type, e.Data, e.Urgent, true
}

func (s *logSource) NextIOValue(proc int) (uint64, bool) {
	if s.ioIdx[proc] >= len(s.io[proc]) {
		return 0, false
	}
	v := s.io[proc][s.ioIdx[proc]]
	s.ioIdx[proc]++
	return v, true
}

func (s *logSource) NextDMA() (uint32, []uint64, bool) {
	if s.dmaIdx >= len(s.dma) {
		return 0, nil, false
	}
	e := s.dma[s.dmaIdx]
	s.dmaIdx++
	return e.Addr, e.Data, true
}

var _ bulksc.ReplaySource = (*logSource)(nil)

// slotCommit is one logical committed chunk in replay commit order.
// Split pieces merge into the logical chunk they came from, so indices
// into the stream correspond to PI-log positions.
type slotCommit struct {
	proc  int
	seqID uint64
	size  int
}

// replayObserver builds the replay-side fingerprint and keeps the
// logical commit stream for divergence localization. It leaves I/O to
// the interval runner, which hashes each processor's consumed range of
// the input log after the run.
type replayObserver struct {
	bulksc.NopObserver
	fp     *fingerprint
	nprocs int
	stream []slotCommit
}

func (o *replayObserver) OnCommit(ev bulksc.CommitEvent) {
	o.fp.commit(ev)
	if ev.Split {
		// A continuation piece shares its logical chunk's slot: fold its
		// size into the processor's most recent stream entry.
		for i := len(o.stream) - 1; i >= 0; i-- {
			if o.stream[i].proc == ev.Proc {
				if o.stream[i].seqID == ev.SeqID {
					o.stream[i].size += ev.Size
				}
				break
			}
		}
		return
	}
	o.stream = append(o.stream, slotCommit{proc: ev.Proc, seqID: ev.SeqID, size: ev.Size})
}
func (o *replayObserver) OnInterrupt(proc int, seq uint64, typ, data int64, _ bool) {
	o.fp.intr(proc, seq, typ, data)
}
func (o *replayObserver) OnDMACommit(_ uint64, addr uint32, data []uint64) {
	o.fp.dma(addr, data)
	o.stream = append(o.stream, slotCommit{proc: o.nprocs, size: -1})
}

// lastSeqOf returns the sequence number of proc's most recent committed
// chunk, if any.
func (o *replayObserver) lastSeqOf(proc int) (uint64, bool) {
	for i := len(o.stream) - 1; i >= 0; i-- {
		if o.stream[i].proc == proc {
			return o.stream[i].seqID, true
		}
	}
	return 0, false
}

// stallError classifies a replay that ended without converging: the
// order-enforcing policy starved (corrupt or truncated ordering log) or
// the instruction budget ran out.
func (rec *Recording) stallError(obs *replayObserver, st bulksc.Stats, budget, piBase uint64) *DivergenceError {
	slot := piBase + uint64(len(obs.stream))
	d := &DivergenceError{Kind: "stall", Mode: rec.Mode, Slot: int64(slot), Proc: -1, SeqID: -1, Interval: -1}
	if st.Insts+st.WastedInsts >= budget {
		d.Detail = fmt.Sprintf("instruction budget (%d) exhausted after %d commits without converging", budget, slot)
		return d
	}
	if rec.Mode != PicoLog {
		if pi := rec.PI.Entries(); slot < uint64(len(pi)) {
			d.Proc = pi[slot]
			if last, ok := obs.lastSeqOf(d.Proc); ok {
				d.SeqID = int64(last) + 1
			} else if d.Proc < rec.NProcs {
				d.SeqID = 0
			}
			d.Detail = fmt.Sprintf("log names processor %d next but it never produced a committable chunk (replayed %d of %d log entries)",
				d.Proc, slot, len(pi))
			return d
		}
		d.Detail = fmt.Sprintf("ordering log exhausted after %d entries with processors still running", slot)
		return d
	}
	d.Detail = fmt.Sprintf("replay starved after %d commits (slot or input log inconsistent with execution)", slot)
	return d
}

// divergence classifies a converged replay whose outcome differs from
// the recording: first it scans the commit stream against the PI and
// size/CS logs (exact slot/core/chunk localization), then falls back to
// the per-processor chain digests (core localization), then to the
// aggregate fingerprint and memory hashes. ordered is false for
// stratified replay, whose commit order legitimately deviates from the
// PI sequence within a stratum.
func (rec *Recording) divergence(obs *replayObserver, res ReplayResult, piBase uint64,
	wantFP uint64, wantChains []uint64, wantMem uint64, ordered bool) *DivergenceError {
	if res.Fingerprint == wantFP && res.MemHash == wantMem {
		return nil
	}
	if ordered && rec.Mode != PicoLog {
		pi := rec.PI.Entries()
		// Per-proc cursors into the Order&Size size logs, advanced over
		// the log prefix an interval replay skipped.
		cursor := make([]int, rec.NProcs)
		for i := uint64(0); i < piBase && i < uint64(len(pi)); i++ {
			if p := pi[i]; p < rec.NProcs {
				cursor[p]++
			}
		}
		for i, sc := range obs.stream {
			slot := piBase + uint64(i)
			if slot >= uint64(len(pi)) {
				return &DivergenceError{Kind: "order", Mode: rec.Mode, Slot: int64(slot), Proc: sc.proc, Interval: -1,
					SeqID: seqOrNeg(sc), Detail: fmt.Sprintf("replay committed %d chunks but the log has %d entries", slot+1, len(pi))}
			}
			if sc.proc != pi[slot] {
				return &DivergenceError{Kind: "order", Mode: rec.Mode, Slot: int64(slot), Proc: sc.proc, Interval: -1,
					SeqID: seqOrNeg(sc), Detail: fmt.Sprintf("processor %d committed where the log names %d", sc.proc, pi[slot])}
			}
			if sc.proc >= rec.NProcs {
				continue // DMA pseudo-processor: no size log
			}
			if rec.Mode == OrderSize {
				want := rec.Sizes[sc.proc].Sizes()[cursor[sc.proc]]
				cursor[sc.proc]++
				if sc.size != want {
					return &DivergenceError{Kind: "size", Mode: rec.Mode, Slot: int64(slot), Proc: sc.proc, Interval: -1,
						SeqID: int64(sc.seqID), Detail: fmt.Sprintf("chunk committed %d instructions where the size log records %d", sc.size, want)}
				}
			}
		}
	}
	if len(wantChains) == rec.NProcs {
		got := obs.fp.procDigests()
		for p := range got {
			if got[p] != wantChains[p] {
				seq := int64(-1)
				if last, ok := obs.lastSeqOf(p); ok {
					seq = int64(last)
				}
				return &DivergenceError{Kind: "state", Mode: rec.Mode, Slot: -1, Proc: p, SeqID: seq, Interval: -1,
					Detail: "core's committed chunk/input stream digest differs from the recording"}
			}
		}
	}
	d := &DivergenceError{Kind: "state", Mode: rec.Mode, Slot: -1, Proc: -1, SeqID: -1, Interval: -1}
	switch {
	case res.MemHash != wantMem:
		d.Detail = fmt.Sprintf("final memory state %x differs from recorded %x", res.MemHash, wantMem)
	default:
		d.Detail = fmt.Sprintf("execution fingerprint %x differs from recorded %x (DMA stream or corrupted fingerprint field)", res.Fingerprint, wantFP)
	}
	return d
}

func seqOrNeg(sc slotCommit) int64 {
	if sc.proc < 0 || sc.size < 0 {
		return -1
	}
	return int64(sc.seqID)
}

// ReplayOptions tune a replay run.
type ReplayOptions struct {
	// Perturb injects the paper's timing noise; nil replays with clean
	// timing.
	Perturb *bulksc.Perturb
	// UseStratified enforces the recording's stratified PI log instead of
	// the exact PI sequence (only meaningful if the recording carried
	// one).
	UseStratified bool
	// ReplayParallel, when > 0, partitions a checkpointed recording into
	// checkpoint-delimited intervals and replays them concurrently on a
	// bounded pool of that many workers (segmented replay). The verdict
	// is bit-identical to a sequential Replay at every worker count, and
	// a divergence is attributed to the earliest diverging interval
	// (DivergenceError.Interval) deterministically. Recordings without
	// checkpoints fall back to plain sequential replay. Incompatible
	// with UseStratified (stratum boundaries do not align with
	// checkpoint cuts). It also sizes the decode of an indexed
	// recording (0: host default).
	ReplayParallel int
	// Trace, when non-nil, captures the replay's execution timeline into
	// the sink (built for the recording's processor count), including a
	// Divergence event locating the first detected divergence if the
	// replay fails to reproduce the recording. Observation-only.
	Trace *trace.Sink
	// Ctx, when non-nil, cancels the replay run: once the context is done
	// the engine (and, for segmented replay, every interval worker) stops
	// within a bounded number of scheduler steps and Replay returns the
	// context's error (wrapped, so errors.Is(err, context.Canceled)
	// holds) — never a DivergenceError.
	Ctx context.Context
}

// Replay re-executes progs deterministically from rec. cfg should
// normally be ReplayConfig(recording cfg). The programs must be the same
// binaries that were recorded.
//
// Replay verifies itself: a malformed recording fails fast with an
// ErrCorruptLog-wrapped error, and a replay that runs but does not
// reproduce the recording (stalled ordering, wrong chunk sizes,
// divergent per-core streams or final memory) returns the partial
// ReplayResult together with a *DivergenceError locating the first
// detected divergence.
//
// Replay only reads rec (see the Recording concurrency comment) and
// builds all engine state per call, so concurrent replays of the same
// recording are safe and produce identical verdicts.
func Replay(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions) (ReplayResult, error) {
	if err := rec.Materialize(opts.ReplayParallel); err != nil {
		return ReplayResult{}, err
	}
	if err := checkReplay(rec, cfg, progs); err != nil {
		return ReplayResult{}, err
	}
	if opts.ReplayParallel > 0 {
		if opts.UseStratified {
			return ReplayResult{}, fmt.Errorf("core: segmented replay cannot enforce a stratified log")
		}
		if len(rec.Checkpoints) > 0 {
			return replaySegmented(rec, cfg, progs, opts)
		}
		// No checkpoints to partition at: plain sequential replay below.
	}
	return replayToEnd(rec, cfg, progs, opts, -1)
}

// checkReplay validates rec and matches the replay machine and programs
// against it.
func checkReplay(rec *Recording, cfg sim.Config, progs []*isa.Program) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if cfg.NProcs != rec.NProcs {
		return fmt.Errorf("core: replay with %d procs, recording has %d", cfg.NProcs, rec.NProcs)
	}
	if len(progs) != rec.NProcs {
		return fmt.Errorf("core: replay with %d programs, recording has %d procs", len(progs), rec.NProcs)
	}
	return nil
}

// replayToEnd replays from checkpoint from (-1: the start of the
// recording) to convergence on a memory of its own, drawn from mem's
// free list, and checks the run against the recorded suffix. Sequential
// Replay and ReplayFromCheckpoint are both this call.
func replayToEnd(rec *Recording, cfg sim.Config, progs []*isa.Program, opts ReplayOptions, from int) (ReplayResult, error) {
	memory := mem.Get()
	defer mem.Put(memory)
	rec.restoreImage(memory, from)
	obs, st, err := replayInterval(rec, cfg, progs, opts, newLogView(rec), memory, from, -1, opts.Trace)
	if err != nil {
		return ReplayResult{}, err
	}
	res := ReplayResult{Stats: st, Fingerprint: obs.fp.sum(), MemHash: memory.Hash()}
	if st.Cancelled {
		return res, cancelledErr("replay", opts.Ctx)
	}
	if d := rec.checkEnd(obs, res, cfg.MaxInstsOrDefault(), from, !opts.UseStratified); d != nil {
		noteDivergence(opts.Trace, st.Cycles, d)
		return res, d
	}
	return res, nil
}

// checkEnd is the verdict of a replay from checkpoint from (-1: the
// start) that ran to the end of the recording: it must have converged
// with the recorded suffix fingerprint, per-processor chains and final
// memory hash. ordered is false for stratified replay (see divergence).
func (rec *Recording) checkEnd(obs *replayObserver, res ReplayResult, budget uint64, from int, ordered bool) *DivergenceError {
	base := rec.cutSlot(from)
	if !res.Stats.Converged {
		return rec.stallError(obs, res.Stats, budget, base)
	}
	fp, chains := rec.Fingerprint, rec.ProcChains
	if from >= 0 {
		fp, chains = rec.Checkpoints[from].Fingerprint, rec.Checkpoints[from].ProcChains
	}
	return rec.divergence(obs, res, base, fp, chains, rec.FinalMemHash, ordered)
}

// noteDivergence marks a located replay divergence on the trace
// timeline (Seq/A carry ^0 when the position could not be narrowed to a
// chunk or commit slot).
func noteDivergence(sink *trace.Sink, t uint64, d *DivergenceError) {
	if sink == nil || d == nil {
		return
	}
	seq, slot := ^uint64(0), ^uint64(0)
	if d.SeqID >= 0 {
		seq = uint64(d.SeqID)
	}
	if d.Slot >= 0 {
		slot = uint64(d.Slot)
	}
	sink.Global().Emit(trace.Event{Time: t, Proc: int32(d.Proc), Kind: trace.Divergence, Seq: seq, A: slot})
}

package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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

// logSource feeds a replay its inputs straight from the recording's
// decoded logs, as the paper's replayer reads them: a chunk's
// truncation and interrupt by its sequence number (a binary search over
// entries whose SeqIDs Validate requires to increase), I/O values and
// DMA transfers in order, through this replay's own cursors. Any
// number of sources may read one recording at once.
type logSource struct {
	rec    *Recording
	ioIdx  []int
	dmaIdx int
}

func (s *logSource) Truncation(proc int, seqID uint64) (int, bool) {
	if s.rec.Mode == OrderSize {
		// Every chunk's size is logged, so chunking follows the log.
		if sizes := s.rec.Sizes[proc].Sizes(); seqID < uint64(len(sizes)) {
			return sizes[seqID], true
		}
		return 0, false
	}
	cs := s.rec.CS[proc].Entries()
	i, ok := slices.BinarySearchFunc(cs, seqID, func(e dlog.CSEntry, seq uint64) int { return cmp.Compare(e.SeqID, seq) })
	if !ok {
		return 0, false
	}
	return cs[i].Size, true
}

func (s *logSource) InterruptAt(proc int, seqID uint64) (int64, int64, bool, bool) {
	in := s.rec.Intr[proc].Entries()
	i, ok := slices.BinarySearchFunc(in, seqID, func(e dlog.IntrEntry, seq uint64) int { return cmp.Compare(e.SeqID, seq) })
	if !ok {
		return 0, 0, false, false
	}
	return in[i].Type, in[i].Data, in[i].Urgent, true
}

func (s *logSource) NextIOValue(proc int) (uint64, bool) {
	vals := s.rec.IO[proc].Values()
	if s.ioIdx[proc] >= len(vals) {
		return 0, false
	}
	v := vals[s.ioIdx[proc]]
	s.ioIdx[proc]++
	return v, true
}

func (s *logSource) NextDMA() (uint32, []uint64, bool) {
	dma := s.rec.DMA.Entries()
	if s.dmaIdx >= len(dma) {
		return 0, nil, false
	}
	e := dma[s.dmaIdx]
	s.dmaIdx++
	return e.Addr, e.Data, true
}

var _ bulksc.ReplaySource = (*logSource)(nil)

// replayObserver builds the replay-side fingerprint and checks each
// logical commit against the ordering logs as it applies: its processor
// against the PI log when it commits, and, in Order&Size, its size
// (split pieces merged) against the size log when the chunk closes — at
// the processor's next logical commit or at the end of the run. It
// keeps the divergence at the lowest slot, which is the first one a scan
// of the commits in slot order would meet. It leaves I/O to the interval
// runner, which hashes each processor's consumed range of the input log
// after the run.
type replayObserver struct {
	bulksc.NopObserver
	fp  *fingerprint
	rec *Recording
	// pi is the commit order to check against, nil where the replay
	// does not follow it (PicoLog, stratified); base is the slot the
	// replay started at.
	pi   []int
	base uint64
	// commits counts logical commits: split pieces share their chunk's.
	commits uint64
	// last is each processor's most recent logical chunk, DMA's last.
	last  []lastCommit
	first *DivergenceError
}

// lastCommit is one processor's most recent logical chunk.
type lastCommit struct {
	seq  uint64
	size int
	slot uint64
	ok   bool // the processor has committed in this replay
	open bool // split pieces may still join it; its size is unchecked
}

func newReplayObserver(rec *Recording, base uint64, ordered bool) *replayObserver {
	o := &replayObserver{fp: newFingerprint(rec.NProcs), rec: rec, base: base,
		last: make([]lastCommit, rec.NProcs+1)}
	if ordered && rec.Mode != PicoLog {
		o.pi = rec.PI.Entries()
	}
	return o
}

func (o *replayObserver) OnCommit(ev bulksc.CommitEvent) {
	o.fp.commit(ev)
	l := &o.last[ev.Proc]
	if ev.Split {
		// A continuation piece shares its logical chunk's slot: fold its
		// size into the chunk.
		if l.ok && l.seq == ev.SeqID {
			l.size += ev.Size
		}
		return
	}
	o.closeChunk(ev.Proc)
	o.commit(ev.Proc, ev.SeqID, ev.Size, int64(ev.SeqID))
	l.open = true
}

func (o *replayObserver) OnInterrupt(proc int, seq uint64, typ, data int64, _ bool) {
	o.fp.intr(proc, seq, typ, data)
}

func (o *replayObserver) OnDMACommit(_ uint64, addr uint32, data []uint64) {
	o.fp.dma(addr, data)
	o.commit(o.rec.NProcs, 0, -1, -1)
}

// commit takes the next slot for proc's logical commit and checks it
// against the PI log; seq is what a divergence reports (-1 for DMA).
func (o *replayObserver) commit(proc int, seqID uint64, size int, seq int64) {
	slot := o.slot()
	o.last[proc] = lastCommit{seq: seqID, size: size, slot: slot, ok: true}
	o.commits++
	switch {
	case !o.checks(slot):
	case slot >= uint64(len(o.pi)):
		o.diverge("order", slot, proc, seq, fmt.Sprintf("replay committed %d chunks but the log has %d entries", slot+1, len(o.pi)))
	case proc != o.pi[slot]:
		o.diverge("order", slot, proc, seq, fmt.Sprintf("processor %d committed where the log names %d", proc, o.pi[slot]))
	}
}

// closeChunk checks proc's open logical chunk, whole now, against the
// Order&Size size log.
func (o *replayObserver) closeChunk(proc int) {
	l := &o.last[proc]
	if !l.open {
		return
	}
	l.open = false
	if o.rec.Mode != OrderSize || !o.checks(l.slot) {
		return
	}
	if sizes := o.rec.Sizes[proc].Sizes(); l.seq < uint64(len(sizes)) && l.size != sizes[l.seq] {
		o.diverge("size", l.slot, proc, int64(l.seq),
			fmt.Sprintf("chunk committed %d instructions where the size log records %d", l.size, sizes[l.seq]))
	}
}

// checks reports whether the commit at slot is checked: the replay
// follows the PI log, and no divergence is known at or before slot.
func (o *replayObserver) checks(slot uint64) bool {
	return o.pi != nil && (o.first == nil || int64(slot) < o.first.Slot)
}

func (o *replayObserver) diverge(kind string, slot uint64, proc int, seq int64, detail string) {
	o.first = &DivergenceError{Kind: kind, Mode: o.rec.Mode, Slot: int64(slot), Proc: proc,
		SeqID: seq, Interval: -1, Detail: detail}
}

// slot is the slot the next logical commit takes.
func (o *replayObserver) slot() uint64 { return o.base + o.commits }

// stallError classifies a replay that ended without converging: the
// order-enforcing policy starved (corrupt or truncated ordering log) or
// the instruction budget ran out.
func (rec *Recording) stallError(obs *replayObserver, st bulksc.Stats, budget uint64) *DivergenceError {
	slot := obs.slot()
	d := &DivergenceError{Kind: "stall", Mode: rec.Mode, Slot: int64(slot), Proc: -1, SeqID: -1, Interval: -1}
	if st.Insts+st.WastedInsts >= budget {
		d.Detail = fmt.Sprintf("instruction budget (%d) exhausted after %d commits without converging", budget, slot)
		return d
	}
	if rec.Mode != PicoLog {
		if pi := rec.PI.Entries(); slot < uint64(len(pi)) {
			d.Proc = pi[slot]
			if last := obs.last[d.Proc]; last.ok {
				d.SeqID = int64(last.seq) + 1
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
// the recording: first the earliest commit that broke the PI or size
// log (exact slot/core/chunk localization; the observer checked them as
// the commits applied), then the per-processor chain digests (core
// localization), then the aggregate fingerprint and memory hashes.
func (rec *Recording) divergence(obs *replayObserver, res ReplayResult,
	wantFP uint64, wantChains []uint64, wantMem uint64) *DivergenceError {
	if res.Fingerprint == wantFP && res.MemHash == wantMem {
		return nil
	}
	for p := 0; p < rec.NProcs; p++ {
		obs.closeChunk(p)
	}
	if obs.first != nil {
		return obs.first
	}
	if len(wantChains) == rec.NProcs {
		got := obs.fp.procDigests()
		for p := range got {
			if got[p] != wantChains[p] {
				seq := int64(-1)
				if last := obs.last[p]; last.ok {
					seq = int64(last.seq)
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
	obs, st, err := replayInterval(rec, cfg, progs, opts, memory, from, -1, opts.Trace)
	if err != nil {
		return ReplayResult{}, err
	}
	res := ReplayResult{Stats: st, Fingerprint: obs.fp.sum(), MemHash: memory.Hash()}
	if st.Cancelled {
		return res, cancelledErr("replay", opts.Ctx)
	}
	if d := rec.checkEnd(obs, res, cfg.MaxInstsOrDefault(), from); d != nil {
		noteDivergence(opts.Trace, st.Cycles, d)
		return res, d
	}
	return res, nil
}

// checkEnd is the verdict of a replay from checkpoint from (-1: the
// start) that ran to the end of the recording: it must have converged
// with the recorded suffix fingerprint, per-processor chains and final
// memory hash.
func (rec *Recording) checkEnd(obs *replayObserver, res ReplayResult, budget uint64, from int) *DivergenceError {
	if !res.Stats.Converged {
		return rec.stallError(obs, res.Stats, budget)
	}
	fp, chains := rec.Fingerprint, rec.ProcChains
	if from >= 0 {
		fp, chains = rec.Checkpoints[from].Fingerprint, rec.Checkpoints[from].ProcChains
	}
	return rec.divergence(obs, res, fp, chains, rec.FinalMemHash)
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

package core

import (
	"context"
	"fmt"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/dlog"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/signature"
	"delorean/internal/sim"
	"delorean/internal/stratifier"
	"delorean/internal/trace"
)

// RecordOptions tune a recording run.
type RecordOptions struct {
	// StratifyMax, when > 0, additionally builds the Strata-reorganized
	// PI log with at most this many chunks per processor per stratum
	// (paper §4.3 and Figure 9 evaluate 1, 3 and 7).
	StratifyMax int
	// TruncSeed seeds Order&Size's random chunk truncation model (paper
	// §5: 25% of chunks truncated to a uniform size). Ignored in the
	// deterministic-chunking modes.
	TruncSeed uint64
	// CheckpointEvery, when > 0, takes a system checkpoint every that
	// many chunk commits; ReplayFromCheckpoint can then replay any
	// interval (paper Appendix B's I(n, m)).
	CheckpointEvery uint64
	// Trace, when non-nil, captures the run's execution timeline into the
	// sink (which must be built for cfg.NProcs processors) and attaches
	// it to the returned Recording. Observation-only: the recording is
	// byte-identical with tracing on or off.
	Trace *trace.Sink
	// Ctx, when non-nil, cancels the recording run: once the context is
	// done the engine stops within a bounded number of scheduler steps
	// and Record returns the context's error (wrapped, so
	// errors.Is(err, context.Canceled) holds) — never a convergence
	// failure. The partial Recording is discarded.
	Ctx context.Context
}

// recorder turns the engine's commit stream into a Recording. It
// implements bulksc.Observer.
type recorder struct {
	rec   *Recording
	strat *stratifier.Stratifier
	// fps[0] fingerprints the whole run; each checkpoint spawns another
	// that accumulates only the interval after its cut, so the newest
	// covers exactly the current interval and the next checkpoint seals
	// it into IntervalFingerprint/IntervalChains. The trailing partial
	// interval is never sealed (the final interval is checked with the
	// last checkpoint's suffix fingerprint instead). Sealing flushes the
	// pending commit early, which changes nothing: a recording run never
	// splits a chunk, so the next commit would flush it anyway.
	fps    []*fingerprint
	nprocs int

	// tr, when non-nil, receives a LogSample event per commit showing
	// log growth over time. The bit counts are maintained incrementally
	// (per-entry costs; CS distance escapes excluded) so sampling stays
	// O(1) per commit where the logs' RawBits walk every entry.
	tr       *trace.Stream
	memBits  uint64   // cumulative memory-ordering bits (PI + CS + sizes)
	csBits   []uint64 // per-proc CS/size bits
	intrBits []uint64 // per-proc interrupt-log bits
	ioBits   []uint64 // per-proc I/O-value-log bits
}

func (r *recorder) eachFP(f func(*fingerprint)) {
	for _, fp := range r.fps {
		f(fp)
	}
}

func (r *recorder) onCheckpoint(cp bulksc.Checkpoint) {
	iv := r.fps[len(r.fps)-1]
	r.rec.Checkpoints = append(r.rec.Checkpoints, IntervalCheckpoint{
		Checkpoint:          cp,
		IntervalFingerprint: iv.sum(),
		IntervalChains:      iv.procDigests(),
	})
	r.fps = append(r.fps, newFingerprint(r.nprocs))
}

func (r *recorder) OnCommit(ev bulksc.CommitEvent) {
	switch r.rec.Mode {
	case OrderSize:
		r.rec.PI.Append(ev.Proc)
		r.rec.Sizes[ev.Proc].Append(ev.Size)
		if r.tr != nil {
			d := uint64(r.rec.Sizes[ev.Proc].EntryBits(ev.Size))
			r.memBits += uint64(r.rec.PI.EntryBits()) + d
			r.csBits[ev.Proc] += d
		}
	case OrderOnly:
		r.rec.PI.Append(ev.Proc)
		if ev.Reason.NonDeterministic() {
			r.rec.CS[ev.Proc].Append(ev.SeqID, ev.Size)
		}
		if r.tr != nil {
			r.memBits += uint64(r.rec.PI.EntryBits())
			if ev.Reason.NonDeterministic() {
				r.memBits += dlog.CSEntryBits
				r.csBits[ev.Proc] += dlog.CSEntryBits
			}
		}
	case PicoLog:
		if ev.Urgent {
			r.rec.Slots.Append(dlog.SlotEntry{Slot: ev.Slot, Proc: ev.Proc})
		}
		if ev.Reason.NonDeterministic() {
			r.rec.CS[ev.Proc].Append(ev.SeqID, ev.Size)
			if r.tr != nil {
				r.memBits += dlog.CSEntryBits
				r.csBits[ev.Proc] += dlog.CSEntryBits
			}
		}
	}
	if r.strat != nil {
		r.strat.Add(ev.Proc, ev.RSig, ev.WSig)
	}
	r.eachFP(func(fp *fingerprint) { fp.commit(ev) })
	if r.tr != nil {
		r.tr.Emit(trace.Event{Time: ev.Time, Proc: int32(ev.Proc), Kind: trace.LogSample,
			A: r.memBits, B: r.csBits[ev.Proc], C: r.intrBits[ev.Proc] + r.ioBits[ev.Proc]})
	}
}

func (r *recorder) OnSquash(int, uint64, int, int) {}

func (r *recorder) OnInterrupt(proc int, seq uint64, typ, data int64, urgent bool) {
	r.rec.Intr[proc].Append(dlog.IntrEntry{SeqID: seq, Type: typ, Data: data, Urgent: urgent})
	if r.tr != nil {
		// Deliveries are rare, so re-deriving the exact raw size here is
		// cheap (the varint encoding has no O(1) per-entry cost).
		r.intrBits[proc] = uint64(r.rec.Intr[proc].RawBits())
	}
	r.eachFP(func(fp *fingerprint) { fp.intr(proc, seq, typ, data) })
}

func (r *recorder) OnIORead(proc int, port int64, v uint64) {
	r.rec.IO[proc].Append(v)
	if r.tr != nil {
		r.ioBits[proc] += 64
	}
	r.eachFP(func(fp *fingerprint) { fp.io(proc, v) })
}

func (r *recorder) OnDMACommit(slot uint64, addr uint32, data []uint64) {
	cp := make([]uint64, len(data))
	copy(cp, data)
	r.rec.DMA.Append(dlog.DMAEntry{Addr: addr, Data: cp, Slot: slot})
	if r.rec.Mode != PicoLog {
		r.rec.PI.Append(bulksc.DMAProc(r.nprocs))
		if r.tr != nil {
			r.memBits += uint64(r.rec.PI.EntryBits())
		}
	}
	if r.strat != nil {
		var w signature.Sig
		last := uint32(0xffffffff)
		for k := range data {
			if l := isa.LineOf(addr + uint32(k)); l != last {
				w.Insert(l)
				last = l
			}
		}
		r.strat.Add(bulksc.DMAProc(r.nprocs), &w, &w)
	}
	r.eachFP(func(fp *fingerprint) { fp.dma(addr, data) })
}

var _ bulksc.Observer = (*recorder)(nil)

// Record executes progs on the chunked machine in the given mode,
// capturing a Recording. init is the initial memory (the system
// checkpoint; nil for an empty one). It must be canonical, as
// mem.Memory.Snapshot returns it: nonzero words at strictly increasing
// addresses. The recording keeps init as its InitialMem, which nothing
// modifies; the run executes on a memory of its own. devs supplies
// interrupts, I/O values and DMA traffic (nil for none). A machine of
// more than MaxProcs processors is refused before anything runs.
func Record(cfg sim.Config, mode Mode, progs []*isa.Program, init mem.Image, devs *device.Devices, opts RecordOptions) (*Recording, error) {
	if cfg.NProcs > MaxProcs {
		return nil, fmt.Errorf("core: %d processors exceed the limit of %d", cfg.NProcs, MaxProcs)
	}
	memory := mem.Get()
	defer mem.Put(memory)
	memory.Restore(init)
	rec := &Recording{
		Mode:       mode,
		NProcs:     cfg.NProcs,
		ChunkSize:  cfg.ChunkSize,
		InitialMem: init,
		DMA:        &dlog.DMALog{},
		Slots:      &dlog.SlotLog{},
	}
	if mode != PicoLog {
		rec.PI = dlog.NewPILog(cfg.NProcs)
	}
	for p := 0; p < cfg.NProcs; p++ {
		rec.CS = append(rec.CS, dlog.NewCSLog(cfg.ChunkSize))
		rec.Intr = append(rec.Intr, &dlog.IntrLog{})
		rec.IO = append(rec.IO, &dlog.IOLog{})
		if mode == OrderSize {
			rec.Sizes = append(rec.Sizes, dlog.NewSizeLog(cfg.ChunkSize))
		}
	}

	r := &recorder{rec: rec, fps: []*fingerprint{newFingerprint(cfg.NProcs)}, nprocs: cfg.NProcs}
	if opts.StratifyMax > 0 && mode != PicoLog {
		r.strat = stratifier.New(cfg.NProcs, opts.StratifyMax)
	}
	if opts.Trace != nil {
		// The recorder's samples are machine-global, so they share the
		// sink's global stream.
		r.tr = opts.Trace.Global()
		r.csBits = make([]uint64, cfg.NProcs)
		r.intrBits = make([]uint64, cfg.NProcs)
		r.ioBits = make([]uint64, cfg.NProcs)
	}

	var policy arbiter.Policy
	if mode == PicoLog {
		policy = arbiter.NewRoundRobin(cfg.NProcs)
	} else {
		policy = arbiter.FreeOrder{}
	}

	eng := &bulksc.Engine{
		Cfg:     cfg,
		Progs:   progs,
		Mem:     memory,
		Devs:    devs,
		Obs:     r,
		Policy:  policy,
		PicoLog: mode == PicoLog,
		Trace:   opts.Trace,
	}
	if mode == OrderSize {
		eng.RandomTrunc = bulksc.DefaultRandomTrunc(opts.TruncSeed ^ 0xD0_0DAD)
	}
	if opts.CheckpointEvery > 0 {
		eng.CheckpointEvery = opts.CheckpointEvery
		eng.OnCheckpoint = r.onCheckpoint
	}
	if opts.Ctx != nil {
		eng.Cancel = opts.Ctx.Done()
	}
	rec.Stats = eng.Run()
	rec.Trace = opts.Trace
	if rec.Stats.Cancelled {
		return nil, cancelledErr("record", opts.Ctx)
	}
	if !rec.Stats.Converged {
		return rec, ErrNotConverged
	}
	if r.strat != nil {
		rec.Stratified = r.strat.Finish()
	}
	rec.Fingerprint = r.fps[0].sum()
	rec.ProcChains = r.fps[0].procDigests()
	for i := range rec.Checkpoints {
		rec.Checkpoints[i].Fingerprint = r.fps[i+1].sum()
		rec.Checkpoints[i].ProcChains = r.fps[i+1].procDigests()
	}
	rec.FinalMemHash = memory.Hash()
	return rec, nil
}

// cancelledErr wraps a done context's error for a run the engine
// abandoned on its Cancel channel, so callers observe
// errors.Is(err, context.Canceled) (or DeadlineExceeded) rather than a
// bogus divergence or convergence failure.
func cancelledErr(what string, ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		// The engine only latches cancellation off ctx.Done(), which
		// closes strictly after Err becomes non-nil; this is unreachable
		// but keeps the wrapper total.
		err = context.Canceled
	}
	return fmt.Errorf("core: %s cancelled: %w", what, err)
}

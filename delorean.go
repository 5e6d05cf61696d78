// Package delorean is a Go reproduction of "DeLorean: Recording and
// Deterministically Replaying Shared-Memory Multiprocessor Execution
// Efficiently" (Montesinos, Ceze, Torrellas — ISCA 2008).
//
// DeLorean records a multithreaded execution on a chunk-based
// multiprocessor (processors execute blocks of instructions atomically,
// as in transactional memory) by logging only the total order of chunk
// commits — orders of magnitude less than schemes that log individual
// memory dependences — and replays it deterministically at near-initial
// speed. This package is the public face of the reproduction: configure
// a machine, run a workload (built-in or hand-assembled) in one of the
// paper's three execution modes, inspect the logs, and replay under
// perturbed timing with verified determinism.
//
//	w := delorean.NewWorkload("raytrace", 8, 100000, 1)
//	rec, err := delorean.Record(delorean.DefaultConfig(), delorean.OrderOnly, w)
//	...
//	res, err := rec.Replay(delorean.ReplayWith{PerturbSeed: 42})
//	fmt.Println(res.Deterministic) // true
//
// The full simulator substrate (BulkSC-style chunked engine, SC/RC
// baseline machines, FDR/RTR/Strata recorders, the evaluation harnesses
// for every table and figure in the paper) lives under internal/; the
// cmd/ binaries and examples/ directory drive it.
package delorean

import (
	"context"
	"errors"
	"fmt"
	"io"

	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/sim"
	"delorean/internal/trace"
	"delorean/internal/workload"
)

// Mode selects DeLorean's execution mode (paper Table 2): the trade-off
// between recording speed and log size.
type Mode int

const (
	// OrderSize logs the commit interleaving and every chunk's size
	// (non-deterministic chunking).
	OrderSize Mode = iota
	// OrderOnly logs only the commit interleaving; chunking is
	// deterministic. The paper's headline mode: records at ~RC speed
	// with ~1-2 bits per processor per kilo-instruction.
	OrderOnly
	// PicoLog predefines the commit order (round-robin): the
	// memory-ordering log all but vanishes, at some execution-speed cost.
	PicoLog
)

// String returns the paper's name for the mode.
func (m Mode) String() string { return coreMode(m).String() }

func coreMode(m Mode) core.Mode {
	switch m {
	case OrderSize:
		return core.OrderSize
	case OrderOnly:
		return core.OrderOnly
	case PicoLog:
		return core.PicoLog
	}
	panic(fmt.Sprintf("delorean: unknown mode %d", int(m)))
}

// The largest machine a recording can describe: the simulator models at
// most MaxProcessors processors, so Record refuses a larger Config
// before it simulates, and LoadRecording rejects a recording of more
// processors, or of larger chunks, as corrupt.
// MaxStratify bounds Config.Stratify: a recording stratified more
// coarsely cannot be saved without truncating its strata.
// MaxInstructionBudget is the instruction budget of a Config that sets
// no MaxInstructions, and the largest a server record request may ask
// for.
const (
	MaxProcessors        = core.MaxProcs
	MaxChunkSize         = core.MaxChunkSize
	MaxStratify          = core.MaxStratify
	MaxInstructionBudget = 2_000_000_000
)

// Config describes the simulated chip multiprocessor. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Processors is the core count (the paper evaluates 4, 8 and 16).
	Processors int
	// ChunkSize is the standard chunk size in instructions (paper: 2000
	// for Order&Size/OrderOnly, 1000 for PicoLog).
	ChunkSize int
	// SimulChunks is the number of simultaneous uncommitted chunks per
	// processor (paper: 2).
	SimulChunks int
	// Stratify, when > 0, additionally builds the Strata-reorganized PI
	// log with that many chunks per processor per stratum (paper §4.3).
	Stratify int
	// CheckpointEvery, when > 0, takes a system checkpoint every that
	// many chunk commits during recording; ReplayFromCheckpoint can then
	// replay any interval (continuous-recording use).
	CheckpointEvery uint64
	// MaxInstructions bounds a run (0: MaxInstructionBudget); runs
	// exceeding it report an error instead of hanging on a livelocked
	// program.
	MaxInstructions uint64
	// SimParallel must be 0 or 1; Record rejects any other value. Each
	// simulation runs on one goroutine.
	//
	// Deprecated: the simulator has a single scheduler, so there is no
	// intra-run worker count to set.
	SimParallel int
}

// DefaultConfig returns the paper's Table 5 machine: 8 processors,
// 2000-instruction chunks, 2 simultaneous chunks per processor.
func DefaultConfig() Config {
	return Config{Processors: 8, ChunkSize: 2000, SimulChunks: 2}
}

// checkSimParallel rejects the deprecated intra-run worker count instead
// of silently ignoring it.
func (c Config) checkSimParallel() error {
	if c.SimParallel != 0 && c.SimParallel != 1 {
		return fmt.Errorf("delorean: SimParallel must be 0 or 1, got %d", c.SimParallel)
	}
	return nil
}

func (c Config) machine() sim.Config {
	m := sim.Default8()
	if c.Processors > 0 {
		m.NProcs = c.Processors
	}
	if c.ChunkSize > 0 {
		m.ChunkSize = c.ChunkSize
	}
	if c.SimulChunks > 0 {
		m.SimulChunks = c.SimulChunks
	}
	if c.MaxInstructions > 0 {
		m.MaxInsts = c.MaxInstructions
	} else {
		m.MaxInsts = MaxInstructionBudget
	}
	return m
}

// Workload is a runnable benchmark: programs, optional device activity
// (interrupts, I/O, DMA), and initial memory.
type Workload = workload.Workload

// WorkloadNames lists the built-in workloads: eleven SPLASH-2-like
// kernels plus sjbb2k and sweb2005.
func WorkloadNames() []string { return workload.Names() }

// NewWorkload builds a built-in workload instance. scale is the
// approximate dynamic instruction count per processor. It panics on an
// unknown name (use WorkloadNames).
func NewWorkload(name string, procs, scale int, seed uint64) *Workload {
	return workload.Get(name, workload.Params{NProcs: procs, Scale: scale, Seed: seed})
}

// Asm assembles custom programs for the simulated ISA; see NewProgram
// for the calling convention. Program is the assembled form.
type (
	Asm     = isa.Asm
	Program = isa.Program
)

// NewAsm returns an empty assembler. By loader convention the program
// starts with r15 = processor ID, r14 = processor count; call LockInit
// before using the Lock/Unlock/Barrier macros.
func NewAsm() *Asm { return isa.NewAsm() }

// CustomWorkload wraps hand-assembled programs into a Workload: pass one
// program to replicate it across all processors (the program reads its
// processor ID from r15), or exactly procs programs for heterogeneous
// threads. Any other count panics — a construction bug.
func CustomWorkload(name string, procs int, progs ...*Program) *Workload {
	if len(progs) != 1 && len(progs) != procs {
		panic(fmt.Sprintf("delorean: CustomWorkload %q: %d programs for %d processors", name, len(progs), procs))
	}
	ps := make([]*isa.Program, procs)
	for i := range ps {
		if len(progs) == 1 {
			ps[i] = progs[0]
		} else {
			ps[i] = progs[i]
		}
	}
	return &Workload{Name: name, Progs: ps}
}

// ExecStats summarizes one execution.
type ExecStats struct {
	Cycles       uint64
	Instructions uint64
	Chunks       uint64
	Squashes     uint64
	Interrupts   uint64
	IOOps        uint64
	DMAs         uint64
}

func execStats(st bulksc.Stats) ExecStats {
	return ExecStats{
		Cycles:       st.Cycles,
		Instructions: st.Insts,
		Chunks:       st.Chunks,
		Squashes:     st.Squashes,
		Interrupts:   st.Interrupts,
		IOOps:        st.IOOps,
		DMAs:         st.DMAs,
	}
}

// Recording is a captured execution: the memory-ordering and input logs
// plus everything needed to replay.
//
// Concurrency contract: a Recording is immutable after construction and
// safe for concurrent use. Replay, ReplayFromCheckpoint, ReplayTraced
// and every read accessor may be called from multiple goroutines on the
// same Recording at once — each replay builds its own engine state and
// rolls its own memory to the checkpoint image it starts from, and the
// only shared mutable state behind the API, an indexed recording's
// one-time decode, is guarded by its own lock. Concurrent replays
// return the same verdicts, bit for bit, as sequential ones.
type Recording struct {
	rec   *core.Recording
	cfg   Config
	progs []*isa.Program
}

// Record executes the workload on the chunked machine in the given mode
// and captures a Recording. The workload's initial memory is the system
// checkpoint replay will restart from.
func Record(cfg Config, mode Mode, w *Workload) (*Recording, error) {
	return RecordContext(context.Background(), cfg, mode, w)
}

// RecordContext is Record with cancellation: once ctx is done the
// engine stops within a bounded number of scheduler steps — far less
// than one chunk's execution — and RecordContext returns an error
// wrapping ctx.Err(). The partial recording is discarded.
func RecordContext(ctx context.Context, cfg Config, mode Mode, w *Workload) (*Recording, error) {
	return record(ctx, cfg, mode, w, nil)
}

// record is the one recording path: RecordContext, and RecordTraced
// with a sink.
func record(ctx context.Context, cfg Config, mode Mode, w *Workload, sink *trace.Sink) (*Recording, error) {
	if err := cfg.checkSimParallel(); err != nil {
		return nil, err
	}
	rec, err := core.Record(cfg.machine(), coreMode(mode), w.Progs, w.Image, w.Devs, core.RecordOptions{
		StratifyMax:     cfg.Stratify,
		CheckpointEvery: cfg.CheckpointEvery,
		Trace:           sink,
		Ctx:             ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("delorean: record %s: %w", w.Name, err)
	}
	return &Recording{rec: rec, cfg: cfg, progs: w.Progs}, nil
}

// Mode returns the recording's execution mode.
func (r *Recording) Mode() Mode { return Mode(r.rec.Mode) }

// Stats returns the initial execution's statistics.
func (r *Recording) Stats() ExecStats { return execStats(r.rec.Stats) }

// LogBits returns the memory-ordering log size in bits (PI + CS logs;
// input logs excluded, following the paper's metric), raw or
// LZ77-compressed.
func (r *Recording) LogBits(compressed bool) int {
	if compressed {
		return r.rec.MemOrderingCompressedBits()
	}
	return r.rec.MemOrderingRawBits()
}

// BitsPerProcPerKinst expresses the compressed memory-ordering log in
// the paper's unit: bits per processor per kilo-instruction.
func (r *Recording) BitsPerProcPerKinst() float64 {
	return r.rec.BitsPerProcPerKinst(r.rec.MemOrderingCompressedBits())
}

// StratifiedLogBits returns the compressed stratified PI log size, if
// the recording was made with Config.Stratify > 0 (otherwise 0).
func (r *Recording) StratifiedLogBits() int {
	if r.rec.Stratified == nil {
		return 0
	}
	return r.rec.Stratified.CompressedBits()
}

// Summary returns a one-line description.
func (r *Recording) Summary() string { return r.rec.String() }

// ReplayWith tunes a replay run.
type ReplayWith struct {
	// PerturbSeed, when nonzero, injects the paper's §6.2.1 timing noise
	// (random stalls before 30% of commits, 1.5% of cache hits and misses
	// flipped) — determinism must hold regardless.
	PerturbSeed uint64
	// UseStratified enforces the stratified PI log instead of the exact
	// commit sequence (requires Config.Stratify at record time).
	UseStratified bool
	// Parallel, when > 0, replays checkpoint-delimited intervals of the
	// recording concurrently on that many workers and stitches the
	// per-interval verdicts (requires Config.CheckpointEvery at record
	// time; without checkpoints it falls back to a sequential replay).
	// The verdict is bit-identical to a sequential replay at every
	// worker count. Incompatible with UseStratified.
	Parallel int
	// Ctx, when non-nil, cancels the replay: once the context is done the
	// engine (every interval worker, for segmented replay) stops within a
	// bounded number of scheduler steps and Replay returns an error
	// wrapping ctx.Err() — never a divergence verdict.
	Ctx context.Context
}

// ReplayResult reports a replay run.
type ReplayResult struct {
	// Deterministic is true when the replay reproduced the recording
	// exactly: same per-processor chunk and input streams, same final
	// memory state.
	Deterministic bool
	Stats         ExecStats
	// DivergentInterval is the earliest checkpoint-delimited interval a
	// segmented replay (ReplayWith.Parallel) proved divergent, or -1
	// when the replay was deterministic or ran unsegmented.
	DivergentInterval int
	// Divergence locates and classifies the first detected divergence
	// when Deterministic is false (nil otherwise).
	Divergence *DivergenceInfo
}

// DivergenceInfo is the public face of the replay verifier's divergence
// taxonomy: where a non-deterministic replay first provably departed
// from the recording, and how.
type DivergenceInfo struct {
	// Kind classifies the divergence: "stall" (replay starved or ran out
	// of budget before reproducing the log), "order" (a processor
	// committed out of the logged sequence; a backstop that replays do
	// not reach, since the replay arbiter grants only the processor the
	// log names next), "size" (a chunk committed the wrong instruction
	// count), or "state" (streams matched but a per-core digest, the
	// fingerprint or final memory differs).
	Kind string
	// Slot is the global commit slot of the divergence (-1 if it could
	// not be narrowed to a slot).
	Slot int64
	// Proc is the diverging processor (-1 if unattributed; the value
	// equal to the processor count is the DMA pseudo-processor).
	Proc int
	// SeqID is the diverging chunk's per-processor sequence number (-1
	// if unknown).
	SeqID int64
	// Interval is the checkpoint-delimited interval a segmented replay
	// attributed the divergence to (-1 for unsegmented replays).
	Interval int
	// Detail is a human-readable diagnosis.
	Detail string
}

func divergenceInfo(div *core.DivergenceError) *DivergenceInfo {
	return &DivergenceInfo{Kind: div.Kind, Slot: div.Slot, Proc: div.Proc,
		SeqID: div.SeqID, Interval: div.Interval, Detail: div.Detail}
}

// Replay re-executes the recording deterministically on the paper's
// replay configuration (serial commit, 50-cycle arbitration).
//
// Replay is safe to call concurrently on the same Recording (see the
// Recording concurrency contract); each call runs on private engine
// state and reads the recording's logs through per-call cursors.
func (r *Recording) Replay(opts ReplayWith) (ReplayResult, error) {
	return r.replay(opts, -1, nil)
}

// replay runs one replay from checkpoint idx (-1: the start of the
// recording), capturing into sink when non-nil, and converts the
// verdict. A detected divergence is a well-formed replay outcome
// (Deterministic=false), not an API failure. A cancelled replay is an
// API failure (wrapping context.Canceled), never a verdict.
func (r *Recording) replay(opts ReplayWith, idx int, sink *trace.Sink) (ReplayResult, error) {
	ro := core.ReplayOptions{
		UseStratified:  opts.UseStratified,
		ReplayParallel: opts.Parallel,
		Trace:          sink,
		Ctx:            opts.Ctx,
	}
	if opts.PerturbSeed != 0 {
		ro.Perturb = bulksc.DefaultPerturb(opts.PerturbSeed)
	}
	m := core.ReplayConfig(r.cfg.machine())
	what := "replay"
	var res core.ReplayResult
	var err error
	if idx < 0 {
		res, err = core.Replay(r.rec, m, r.progs, ro)
	} else {
		what = "interval replay"
		res, err = core.ReplayFromCheckpoint(r.rec, idx, m, r.progs, ro)
	}
	if err != nil {
		var div *core.DivergenceError
		if errors.As(err, &div) {
			return ReplayResult{Deterministic: false, Stats: execStats(res.Stats),
				DivergentInterval: div.Interval, Divergence: divergenceInfo(div)}, nil
		}
		return ReplayResult{}, fmt.Errorf("delorean: %s: %w", what, err)
	}
	ok := res.Matches(r.rec)
	if idx >= 0 {
		ok = res.MatchesInterval(r.rec, idx)
	}
	return ReplayResult{Deterministic: ok, Stats: execStats(res.Stats), DivergentInterval: -1}, nil
}

// RunUnordered executes the recording's programs again on the chunked
// machine WITHOUT enforcing the recorded order — the control experiment
// showing that determinism comes from the logs. It returns whether the
// re-execution happened to reproduce the recording's final state (for a
// racy workload under different timing: almost surely false).
func (r *Recording) RunUnordered(perturbArbiter bool) (bool, ExecStats, error) {
	if err := r.rec.Materialize(0); err != nil {
		return false, ExecStats{}, fmt.Errorf("delorean: unordered run: %w", err)
	}
	m := r.cfg.machine()
	if perturbArbiter {
		m = core.ReplayConfig(m) // different commit timing than recording
	}
	rec2, err := core.Record(m, r.rec.Mode, r.progs, r.rec.InitialMem, device.New(0), core.RecordOptions{})
	if err != nil {
		return false, ExecStats{}, fmt.Errorf("delorean: unordered run: %w", err)
	}
	same := rec2.FinalMemHash == r.rec.FinalMemHash && rec2.Fingerprint == r.rec.Fingerprint
	return same, execStats(rec2.Stats), nil
}

// Checkpoints returns how many interval checkpoints the recording holds
// (zero unless recorded with Config.CheckpointEvery). Counting does not
// decode an indexed recording.
func (r *Recording) Checkpoints() int { return r.rec.CheckpointCount() }

// ReplayFromCheckpoint deterministically replays the interval from the
// idx-th checkpoint to the end of the recording (the paper's Appendix B
// I(n, m)): memory restores from the checkpoint, processors resume from
// their saved chunk boundaries, and the log suffixes drive ordering and
// inputs.
//
// Like Replay, it is safe to call concurrently on the same Recording:
// the checkpoint's image is rebuilt in the replay's own memory, from
// the initial image and the deltas up to idx.
func (r *Recording) ReplayFromCheckpoint(idx int, opts ReplayWith) (ReplayResult, error) {
	return r.replay(opts, idx, nil)
}

// Save serializes the recording (logs, checkpoint, verification hashes)
// so it can be replayed later or elsewhere; Load it back with
// LoadRecording and the same workload programs. Shards are compressed on
// a host-sized worker pool; the bytes are identical at any worker count.
func (r *Recording) Save(w io.Writer) error {
	_, err := r.rec.WriteTo(w)
	return err
}

// SaveParallel is Save with an explicit compression worker count
// (0: host default, 1: fully sequential). The output is byte-identical
// regardless of workers; only wall clock differs.
func (r *Recording) SaveParallel(w io.Writer, workers int) error {
	_, err := r.rec.WriteToParallel(w, workers)
	return err
}

// LoadRecording deserializes a recording saved with Save. It reads the
// whole container, indexes it (see IndexRecording) and materializes
// every section. v4 is the only container format; any other version is
// rejected with an error wrapping ErrCorruptLog. The workload must be
// regenerated identically (same name/parameters or the same custom
// programs); cfg supplies machine parameters not stored in the
// recording (the processor count and chunk size come from the file).
func LoadRecording(src io.Reader, cfg Config, w *Workload) (*Recording, error) {
	return LoadRecordingParallel(src, cfg, w, 0)
}

// ErrWorkloadMismatch reports that a recording and the workload offered
// for its replay disagree on shape (processor count). Load failures wrap
// it so callers can distinguish "wrong workload parameters" — a caller
// mistake — from a corrupt or truncated container.
var ErrWorkloadMismatch = errors.New("workload does not match recording")

// ErrNotConverged reports that Record hit the instruction budget
// (Config.MaxInstructions) before every thread halted.
var ErrNotConverged = core.ErrNotConverged

// LoadRecordingParallel is LoadRecording with an explicit decode worker
// count (0: host default, 1: fully sequential).
func LoadRecordingParallel(src io.Reader, cfg Config, w *Workload, workers int) (*Recording, error) {
	rec, err := core.ReadRecordingParallel(src, workers)
	if err != nil {
		return nil, err
	}
	return loaded(rec, cfg, w)
}

// loaded binds a loaded recording to the workload offered for its
// replay; the processor count and chunk size come from the file.
func loaded(rec *core.Recording, cfg Config, w *Workload) (*Recording, error) {
	if len(w.Progs) != rec.NProcs {
		return nil, fmt.Errorf("delorean: %w: recording has %d processors, workload has %d",
			ErrWorkloadMismatch, rec.NProcs, len(w.Progs))
	}
	cfg.Processors = rec.NProcs
	cfg.ChunkSize = rec.ChunkSize
	return &Recording{rec: rec, cfg: cfg, progs: w.Progs}, nil
}

// IndexRecording builds a Recording from an in-memory v4 container
// without decoding it: frame headers are parsed and checked against the
// container's structure rules and every payload is CRC-checked, but the
// payloads stay compressed, retained as subslices of data, and the whole
// recording decodes on first use (the first replay, or Materialize).
// The caller must not mutate data while the Recording is alive. It is
// the first half of every load: LoadRecording is IndexRecording
// followed by Materialize.
//
// This is the serving path's cheap admission: indexing costs one pass
// over the bytes (CRC speed), not a decompression of every shard, and
// Release returns a materialized recording to this indexed state so a
// byte-budgeted store can bound resident memory.
func IndexRecording(data []byte, cfg Config, w *Workload) (*Recording, error) {
	rec, err := core.IndexRecording(data)
	if err != nil {
		return nil, err
	}
	return loaded(rec, cfg, w)
}

// Materialize decodes every retained frame of an indexed recording (logs
// and checkpoints), fanning the decompression across workers (0: host
// default). It is a validated no-op on a fresh (Record-made) or already
// materialized recording, and it is safe to call concurrently with
// replays — a replay makes the same call under the same lock.
func (r *Recording) Materialize(workers int) error {
	return r.rec.Materialize(workers)
}

// Release evicts an indexed recording's decoded state back to the
// retained compressed frames; the next replay (or Materialize)
// rebuilds them bit-identically. No-op for fresh (Record-made)
// recordings, which have no container to fall back to.
// The caller must guarantee no replay of this Recording is in flight.
func (r *Recording) Release() { r.rec.Release() }

// Materialized reports whether the recording is currently decoded
// (always true for fresh, Record-made recordings).
func (r *Recording) Materialized() bool { return r.rec.Materialized() }

// MaterializedSizeEstimate returns the summed decompressed section
// bytes an indexed recording occupies when materialized — the residency
// manager's accounting unit. Zero for fresh (Record-made) recordings.
func (r *Recording) MaterializedSizeEstimate() int64 { return r.rec.MaterializedSizeEstimate() }

// EstimateLogGBPerDay extrapolates the recording's compressed
// memory-ordering log rate to a machine of the given clock frequency
// (Hz) assuming one instruction per cycle per processor — the paper's
// "about 20GB per day for an 8-processor 5-GHz machine" estimate for
// PicoLog.
func (r *Recording) EstimateLogGBPerDay(freqHz float64) float64 {
	m := r.BitsPerProcPerKinst()                               // total bits per total kilo-instruction
	totalInstsPerDay := freqHz * 86400 * float64(r.rec.NProcs) // IPC = 1
	bits := m * totalInstsPerDay / 1000
	return bits / 8 / 1e9
}

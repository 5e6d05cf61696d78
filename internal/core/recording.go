// Package core implements DeLorean itself: the recorder that captures a
// chunked execution into the paper's logs, and the replayer that
// deterministically re-executes it.
//
// DeLorean's insight is that on a chunk-based substrate the entire
// memory-ordering history of a multithreaded execution collapses into
// the total order of chunk commits. The recorder therefore only logs:
//
//   - the PI (processor interleaving) log: the sequence of committing
//     processor IDs (omitted entirely in PicoLog, where the order is
//     predefined round-robin);
//   - the CS (chunk size) logs: in Order&Size, every chunk's size; in
//     OrderOnly/PicoLog, only the rare non-deterministic truncations;
//   - the input logs: interrupts (by handler chunk ID), I/O load values,
//     and DMA transfers (by PI entry or, in PicoLog, by commit slot).
//
// Replay re-runs the same programs from the same checkpoint with an
// order-enforcing arbiter policy and the logs as the input source;
// everything else — including timing — is free to differ.
package core

import (
	"fmt"
	"hash/fnv"
	"sync"

	"delorean/internal/bulksc"
	"delorean/internal/dlog"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/stratifier"
	"delorean/internal/trace"
)

// Mode selects DeLorean's execution mode (paper Table 2).
type Mode int

const (
	// OrderSize: non-deterministic chunking, non-predefined commit
	// interleaving. The arbiter logs committing processor IDs and every
	// processor logs each chunk's size.
	OrderSize Mode = iota
	// OrderOnly: deterministic chunking, non-predefined interleaving.
	// Only the PI log (plus rare CS entries) is needed.
	OrderOnly
	// PicoLog: deterministic chunking and predefined (round-robin)
	// interleaving. The memory-ordering log all but disappears.
	PicoLog
)

// String returns the paper's mode name.
func (m Mode) String() string {
	switch m {
	case OrderSize:
		return "Order&Size"
	case OrderOnly:
		return "OrderOnly"
	case PicoLog:
		return "PicoLog"
	}
	return "mode(?)"
}

// Recording is everything captured from an initial execution: the
// system checkpoint (initial memory), the memory-ordering log in the
// chosen mode, the input logs, and a fingerprint for determinism
// verification.
//
// All exported fields are written once (by the recorder or the loader)
// and read-only thereafter; replay never mutates them, and each replay
// rolls its own memory to the checkpoint image it starts from. The only
// mutable state, an indexed recording's materialization, is guarded by
// mu (lazy.go). This is what makes concurrent
// replays of one Recording safe — the public API's concurrency contract
// (delorean.Recording) rests on it.
type Recording struct {
	Mode      Mode
	NProcs    int
	ChunkSize int

	// InitialMem is the system checkpoint recording started from.
	InitialMem mem.Image

	// Memory-ordering log.
	PI    *dlog.PILog     // nil in PicoLog
	CS    []*dlog.CSLog   // per processor
	Sizes []*dlog.SizeLog // per processor, Order&Size only

	// Stratified is the Strata-reorganized PI log (§4.3), built when the
	// recorder was configured with a stratifier. Replay can enforce it
	// instead of the PI sequence.
	Stratified *stratifier.StratifiedLog

	// Input logs.
	Intr  []*dlog.IntrLog
	IO    []*dlog.IOLog
	DMA   *dlog.DMALog
	Slots *dlog.SlotLog // PicoLog out-of-turn (urgent) commit slots

	// Checkpoints are the periodic system checkpoints taken when
	// recording with RecordOptions.CheckpointEvery (interval replay
	// starting points). WriteTo stores one frame per checkpoint.
	Checkpoints []IntervalCheckpoint

	// Fingerprint summarizes the architectural execution (per-processor
	// commit/input streams); FinalMemHash is the memory state at the end.
	Fingerprint  uint64
	FinalMemHash uint64

	// ProcChains are the per-processor slices of the fingerprint: one
	// digest per core over its committed chunk and input streams. A
	// replay whose Fingerprint mismatches compares these to name the
	// first divergent core in its DivergenceError.
	ProcChains []uint64

	// Stats is the initial execution's performance data.
	Stats bulksc.Stats

	// Trace is the execution timeline captured when recording with
	// RecordOptions.Trace (nil otherwise). Host-side observability only:
	// not serialized by WriteTo and not part of replay matching.
	Trace *trace.Sink

	// Lazy-residency state (lazy.go). A recording loaded from a
	// container (IndexRecording) retains its v4 frames compressed and
	// decodes them all on first use; a freshly recorded one leaves
	// frames nil and Materialize is a no-op. mu serializes Materialize
	// and Release and guards done and err; frames, ckFrames and sizeEst
	// are fixed at index time.
	mu       sync.Mutex
	frames   []lazyFrame // retained frames in stream order; nil when fresh
	ckFrames int         // checkpoint frames among them
	done     bool
	err      error
	sizeEst  int64 // summed raw frame bytes (residency cost estimate)
}

// restoreImage loads memory with the image at checkpoint k (-1: the
// initial memory): the initial image rolled forward through deltas
// 0..k. It is the one way a replay reaches a checkpoint's image.
func (r *Recording) restoreImage(memory *mem.Memory, k int) {
	memory.Restore(r.InitialMem)
	for j := 0; j <= k; j++ {
		memory.ApplyDelta(r.Checkpoints[j].MemDelta)
	}
}

// MemOrderingRawBits returns the uncompressed memory-ordering log size in
// bits (PI + CS + Sizes; input logs excluded, as in the paper).
func (r *Recording) MemOrderingRawBits() int { return r.PIRawBits() + r.CSRawBits() }

// MemOrderingCompressedBits returns the LZ77-compressed memory-ordering
// log size in bits.
func (r *Recording) MemOrderingCompressedBits() int {
	return r.PICompressedBits() + r.CSCompressedBits()
}

// PIRawBits and CSRawBits split the raw log for the figures' stacked
// bars.
func (r *Recording) PIRawBits() int {
	_ = r.Materialize(0) // best-effort: a recording that fails to decode reports 0
	if r.PI == nil {
		return 0
	}
	return r.PI.RawBits()
}

// CSRawBits returns the total per-processor CS+size log bits.
func (r *Recording) CSRawBits() int {
	_ = r.Materialize(0) // best-effort: a recording that fails to decode reports 0
	n := 0
	for _, cs := range r.CS {
		n += cs.RawBits()
	}
	for _, sl := range r.Sizes {
		n += sl.RawBits()
	}
	return n
}

// PICompressedBits returns the compressed PI log size.
func (r *Recording) PICompressedBits() int {
	_ = r.Materialize(0) // best-effort: a recording that fails to decode reports 0
	if r.PI == nil {
		return 0
	}
	return r.PI.CompressedBits()
}

// CSCompressedBits returns the compressed CS (+size) log size.
func (r *Recording) CSCompressedBits() int {
	_ = r.Materialize(0) // best-effort: a recording that fails to decode reports 0
	n := 0
	for _, cs := range r.CS {
		n += cs.CompressedBits()
	}
	for _, sl := range r.Sizes {
		n += sl.CompressedBits()
	}
	return n
}

// BitsPerProcPerKinst expresses a bit count in the paper's log-size
// unit: bits per processor per kilo-instruction *executed by that
// processor* — which reduces to total log bits divided by total
// kilo-instructions. (Sanity anchor: the paper's 0.05 bits/proc/kinst
// PicoLog rate on eight 5-GHz processors at IPC 1 gives
// 0.05 x 8 x 5e9 x 86400 / 1000 bits ≈ 21.6 GB/day — their "about 20GB
// per day".)
func (r *Recording) BitsPerProcPerKinst(bits int) float64 {
	if r.Stats.Insts == 0 {
		return 0
	}
	return float64(bits) / (float64(r.Stats.Insts) / 1000.0)
}

// String summarizes the recording.
func (r *Recording) String() string {
	return fmt.Sprintf("%s recording: %d procs, %d insts, %d chunks, mem-ordering %d bits raw / %d compressed",
		r.Mode, r.NProcs, r.Stats.Insts, r.Stats.Chunks,
		r.MemOrderingRawBits(), r.MemOrderingCompressedBits())
}

// ReplayConfig derives the paper's replay machine configuration from the
// recording machine's: parallel commit disabled and commit arbitration
// latency raised from 30 to 50 cycles (§6.2.1: replay runs under a
// hypervisor layer).
func ReplayConfig(cfg sim.Config) sim.Config {
	cfg.MaxConcurCommits = 1
	cfg.ArbLat = 50
	return cfg
}

// fingerprint accumulates replay-invariant execution digests: one chain
// per processor over its committed logical chunks (replay split pieces
// merge into the logical chunk they came from, so a replay that had to
// split a chunk on unexpected overflow still fingerprints equal), plus
// per-processor input chains and a DMA chain.
//
// Two deliberate exclusions keep the fingerprint exactly as strong as
// the paper's determinism definition (Appendix B) and no stronger:
// cross-processor interleaving is not hashed (equivalent orders within a
// stratum must fingerprint equal), and per-chunk store hashes are not
// hashed (a split piece's write set differs from the whole chunk's even
// when the architectural effect is identical). Value-level divergence is
// caught by the final memory hash, which is verified alongside.
type fingerprint struct {
	commitChain []uint64 // per proc
	pendSeq     []uint64 // per proc: pending logical chunk being merged
	pendSize    []uint64
	pendValid   []bool
	ioChain     []uint64
	intrChain   []uint64
	dmaChain    uint64
}

func newFingerprint(nprocs int) *fingerprint {
	return &fingerprint{
		commitChain: make([]uint64, nprocs),
		pendSeq:     make([]uint64, nprocs),
		pendSize:    make([]uint64, nprocs),
		pendValid:   make([]bool, nprocs),
		ioChain:     make([]uint64, nprocs),
		intrChain:   make([]uint64, nprocs),
	}
}

func mix(chain uint64, vals ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(chain)
	for _, v := range vals {
		put(v)
	}
	return h.Sum64()
}

func (f *fingerprint) commit(ev bulksc.CommitEvent) {
	if ev.Proc >= len(f.commitChain) {
		return // DMA handled via dma()
	}
	p := ev.Proc
	if f.pendValid[p] && ev.Split && ev.SeqID == f.pendSeq[p] {
		f.pendSize[p] += uint64(ev.Size)
		return
	}
	f.flush(p)
	f.pendSeq[p] = ev.SeqID
	f.pendSize[p] = uint64(ev.Size)
	f.pendValid[p] = true
}

func (f *fingerprint) flush(p int) {
	if f.pendValid[p] {
		f.commitChain[p] = mix(f.commitChain[p], f.pendSeq[p], f.pendSize[p])
		f.pendValid[p] = false
	}
}

func (f *fingerprint) io(proc int, v uint64) {
	f.ioChain[proc] = mix(f.ioChain[proc], v)
}

func (f *fingerprint) intr(proc int, seq uint64, typ, data int64) {
	f.intrChain[proc] = mix(f.intrChain[proc], seq, uint64(typ), uint64(data))
}

func (f *fingerprint) dma(addr uint32, data []uint64) {
	f.dmaChain = mix(f.dmaChain, uint64(addr), uint64(len(data)))
	for _, v := range data {
		f.dmaChain = mix(f.dmaChain, v)
	}
}

func (f *fingerprint) sum() uint64 {
	s := f.dmaChain
	for p := range f.commitChain {
		f.flush(p)
		s = mix(s, f.commitChain[p], f.ioChain[p], f.intrChain[p])
	}
	return s
}

// procDigests returns one digest per processor over its commit and
// input chains — the per-core decomposition of sum().
func (f *fingerprint) procDigests() []uint64 {
	out := make([]uint64, len(f.commitChain))
	for p := range f.commitChain {
		f.flush(p)
		out[p] = mix(f.commitChain[p], f.ioChain[p], f.intrChain[p])
	}
	return out
}

// Package bulksc implements the chunk-based execution engine — the
// BulkSC-style machine DeLorean records on and replays with.
//
// Processors continuously execute chunks of consecutive dynamic
// instructions atomically and in isolation: stores buffer in the chunk,
// footprints are hash-encoded into Bulk signatures, and commit is
// arbitrated centrally. A committing chunk's write signature squashes
// conflicting uncommitted chunks on other processors, which then restore
// their register checkpoints and re-execute. Exceptional events follow
// the paper's Table 4: interrupts and traps never truncate chunks;
// uncached accesses and the size limit truncate deterministically; cache
// overflow and repeated collisions truncate non-deterministically (and
// are therefore CS-logged by the recorder).
//
// The engine is mode-agnostic: DeLorean's execution modes differ only in
// the commit Policy installed in the arbiter and in which Observer
// callbacks the recorder consumes; replay installs an order-enforcing
// policy and a ReplaySource that injects logged inputs.
package bulksc

import (
	"delorean/internal/chunk"
	"delorean/internal/signature"
)

// DMAProc is the pseudo-processor ID the DMA engine uses with the
// arbiter; it equals the processor count (the paper's 4-bit PI entries
// encode 8 processors plus the DMA).
func DMAProc(nprocs int) int { return nprocs }

// CommitEvent describes one committed chunk, in global commit order.
// This stream is DeLorean's raw material: the PI log is the sequence of
// Proc values, the CS log records the non-deterministically truncated
// entries, and execution fingerprints hash the whole event.
type CommitEvent struct {
	Proc   int
	SeqID  uint64 // logical per-processor chunk sequence number
	Size   int    // retired instructions in the chunk
	Time   uint64 // commit (grant) time
	Slot   uint64 // global commit index
	Reason chunk.TruncReason
	// Urgent marks an out-of-turn commit (high-priority interrupt handler
	// in PicoLog); its Slot must be enforced during replay.
	Urgent bool
	// Split marks a replay-only continuation piece that shares its PI
	// log entry with the preceding piece.
	Split bool
	// StoreHash is a hash over the chunk's (address, value) store set.
	// The determinism fingerprint leaves it out (a split piece's store
	// set differs from its whole chunk's); only the engine goldens'
	// observer streams read it.
	StoreHash uint64
	// RSig/WSig are the chunk's footprint signatures, valid only for the
	// duration of the callback (the PI-log stratifier consumes them).
	RSig, WSig *signature.Sig
}

// Observer receives the engine's replay-relevant events. Implementations
// must not retain the event structs' slices.
type Observer interface {
	OnCommit(CommitEvent)
	// OnSquash reports that proc's chunk seqID (with insts executed so
	// far) was squashed by committer.
	OnSquash(proc int, seqID uint64, insts int, committer int)
	// OnInterrupt reports delivery of an interrupt whose handler starts
	// as chunk handlerSeq on proc.
	OnInterrupt(proc int, handlerSeq uint64, typ, data int64, urgent bool)
	// OnIORead reports the value obtained by an uncached I/O load.
	OnIORead(proc int, port int64, value uint64)
	// OnDMACommit reports a DMA transfer committing at the given slot.
	OnDMACommit(slot uint64, addr uint32, data []uint64)
}

// NopObserver discards all events; embed it to implement part of
// Observer.
type NopObserver struct{}

func (NopObserver) OnCommit(CommitEvent)                        {}
func (NopObserver) OnSquash(int, uint64, int, int)              {}
func (NopObserver) OnInterrupt(int, uint64, int64, int64, bool) {}
func (NopObserver) OnIORead(int, int64, uint64)                 {}
func (NopObserver) OnDMACommit(uint64, uint32, []uint64)        {}

var _ Observer = NopObserver{}

// ReplaySource supplies logged inputs during replay. All methods are
// consumed in deterministic per-processor order.
type ReplaySource interface {
	// Truncation returns the recorded size of chunk (proc, seqID) if it
	// was truncated non-deterministically during recording.
	Truncation(proc int, seqID uint64) (size int, ok bool)
	// InterruptAt returns the interrupt to inject when proc starts chunk
	// seqID, if one was recorded there.
	InterruptAt(proc int, seqID uint64) (typ, data int64, urgent bool, ok bool)
	// NextIOValue returns proc's next logged I/O load value.
	NextIOValue(proc int) (uint64, bool)
	// NextDMA returns the next logged DMA transfer's payload.
	NextDMA() (addr uint32, data []uint64, ok bool)
}

// Perturb configures replay timing perturbation (paper §6.2.1): random
// stalls before a fraction of commit operations and hit↔miss latency
// flips, to demonstrate that determinism comes from the logs rather than
// from timing.
type Perturb struct {
	Seed               uint64
	StallProb          float64
	StallMin, StallMax uint64
	FlipProb           float64
}

// DefaultPerturb returns the paper's replay perturbation: 10–300-cycle
// stalls before 30% of commits, 1.5% of cache hits and misses flipped.
func DefaultPerturb(seed uint64) *Perturb {
	return &Perturb{Seed: seed, StallProb: 0.30, StallMin: 10, StallMax: 300, FlipProb: 0.015}
}

// RandomTrunc configures Order&Size's non-deterministic chunking model
// (paper §5): with probability Prob a fresh chunk's target size is drawn
// uniformly from [1, standard chunk size].
type RandomTrunc struct {
	Seed uint64
	Prob float64
}

// DefaultRandomTrunc returns the paper's 25% truncation model.
func DefaultRandomTrunc(seed uint64) *RandomTrunc {
	return &RandomTrunc{Seed: seed, Prob: 0.25}
}

// Stats summarizes one chunked-machine run.
type Stats struct {
	Cycles uint64 // makespan
	// Insts counts usefully retired (committed) instructions, including
	// uncached I/O instructions executed between chunks.
	Insts uint64
	// WastedInsts counts instructions executed in squashed chunk runs.
	WastedInsts uint64
	MemOps      uint64
	IOOps       uint64
	Interrupts  uint64
	DMAs        uint64

	Chunks   uint64 // committed chunks (split pieces count once)
	Squashes uint64
	// TruncBy counts committed chunks by truncation reason.
	TruncBy map[chunk.TruncReason]uint64
	// SpuriousSquashes counts squashes triggered by signature false
	// positives (no exact-line conflict existed) — ablation material.
	SpuriousSquashes uint64

	// StallCycles sums per-core stall time (waiting on chunk slots,
	// drains, ROB).
	StallCycles uint64
	// SlotStallCycles is the subset spent blocked with both simultaneous
	// chunks completed and uncommitted (Table 6's "Stall Cycles").
	SlotStallCycles uint64

	// TrafficBytes approximates interconnect traffic: signatures and
	// grants exchanged with the arbiter, commit invalidations, line
	// transfers, and squash refetches.
	TrafficBytes uint64

	Converged bool
	// Stopped marks a run that halted cleanly at a requested commit
	// boundary (Engine.StopAtCommit) rather than by convergence. Host-side
	// only: segmented replay workers run each interval up to the next
	// checkpoint's commit slot and treat Stopped as success.
	Stopped bool
	// Cancelled marks a run abandoned through Engine.Cancel. Host-side
	// only: callers must classify such a run as cancelled, never as a
	// divergence or log corruption — the partial stats describe however
	// far the run got.
	Cancelled bool
	PerProc   []ProcStats
}

// ProcStats is the per-core slice.
type ProcStats struct {
	Cycles          uint64
	Insts           uint64
	WastedInsts     uint64
	Chunks          uint64
	Squashes        uint64
	SlotStallCycles uint64
}

// IPC returns useful instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Package sim provides the discrete-event multiprocessor simulator that
// all machine models in this repository are built on: the shared machine
// configuration, the cache-hierarchy/coherence timing model, the per-core
// timing model (ROB-limited runahead, MSHR-limited miss overlap, store
// buffering), and the classic SC/RC machine used both as the paper's
// performance baselines and as the substrate for the prior-work recorders
// (FDR/RTR/Strata).
//
// The chunk-based machine (BulkSC) that DeLorean records on lives in
// internal/bulksc and reuses these components.
package sim

// Config describes the simulated CMP. Defaults follow the paper's
// Table 5 (8-core 5 GHz CMP).
type Config struct {
	NProcs int

	// Core.
	IssueWidth int // sustained non-memory instructions per cycle
	ROB        int // reorder-buffer entries bounding runahead
	StoreBuf   int // store-buffer entries (RC)
	MSHRs      int // outstanding L1 misses per core

	// Memory hierarchy (latencies are round trips in cycles, each at least
	// one).
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	L1Lat           uint64
	L2Lat           uint64
	MemLat          uint64

	// Uncached I/O access latency.
	IOLat uint64

	// Chunked execution (BulkSC / DeLorean).
	ChunkSize        int    // standard chunk size in instructions
	SimulChunks      int    // simultaneous (uncommitted) chunks per processor
	ArbLat           uint64 // commit arbitration round trip
	CommitDur        uint64 // commit propagation occupancy per chunk
	MaxConcurCommits int    // chunks committing in parallel system-wide
	SquashPenalty    uint64 // pipeline refill after a squash
	CollisionLimit   int    // squashes before halving the chunk (repeated collision)

	// MaxInsts bounds total retired instructions across the machine; a
	// run exceeding it is reported as not converged (safety net against
	// livelocked workloads). Zero means 100M.
	MaxInsts uint64
}

// Default8 returns the paper's Table 5 configuration: 8 processors,
// 6/4/5-wide core with a 176-entry ROB and 56-entry load/store queues,
// 32 KB 4-way L1 (2-cycle round trip, 8 MSHRs), 8 MB 8-way shared L2
// (13-cycle round trip), 300-cycle memory, 30-cycle commit arbitration,
// up to 4 concurrent commits, 2 simultaneous chunks per processor, and
// 2000-instruction chunks.
func Default8() Config {
	return Config{
		NProcs:     8,
		IssueWidth: 4,
		ROB:        176,
		StoreBuf:   56,
		MSHRs:      8,
		L1Bytes:    32 * 1024, L1Ways: 4,
		L2Bytes: 8 * 1024 * 1024, L2Ways: 8,
		L1Lat:  2,
		L2Lat:  13,
		MemLat: 300,
		IOLat:  200,

		ChunkSize:        2000,
		SimulChunks:      2,
		ArbLat:           30,
		CommitDur:        15,
		MaxConcurCommits: 4,
		SquashPenalty:    17, // the paper's minimum branch penalty
		CollisionLimit:   4,

		MaxInsts: 0,
	}
}

// WithProcs returns a copy of c resized to n processors.
func (c Config) WithProcs(n int) Config {
	c.NProcs = n
	return c
}

// WithChunkSize returns a copy of c with the given standard chunk size.
func (c Config) WithChunkSize(n int) Config {
	c.ChunkSize = n
	return c
}

// MaxInstsOrDefault returns the effective instruction budget: MaxInsts,
// or the 100M default when zero.
func (c Config) MaxInstsOrDefault() uint64 {
	if c.MaxInsts == 0 {
		return 100_000_000
	}
	return c.MaxInsts
}

// Model selects the memory consistency implementation of the classic
// (non-chunked) machine.
type Model int

const (
	// SC is an aggressive sequential-consistency implementation with
	// speculative loads and exclusive prefetching for stores: stores
	// become visible in program order, loads speculate past them, and
	// runahead is bounded by the ROB.
	SC Model = iota
	// RC is release consistency with speculative execution across fences
	// and hardware exclusive prefetching: stores retire into the store
	// buffer and complete out of order; only fences and atomics order.
	RC
	// TSO is total store order (the model real x86-like machines use and
	// the one the paper's Advanced RTR extension targets): stores retire
	// into a FIFO store buffer and become visible in program order;
	// loads may bypass pending stores.
	TSO
)

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case RC:
		return "RC"
	case TSO:
		return "TSO"
	}
	return "model(?)"
}

// Package chunk defines the state of one chunk — the unit of atomic
// execution in BulkSC-style machines and the unit DeLorean's logs order.
//
// A chunk is a group of consecutive dynamic instructions executed
// speculatively and in isolation: its stores buffer locally, its read and
// write footprints are hash-encoded into signatures, and the whole chunk
// either commits atomically or is squashed and re-executed from its
// register checkpoint.
package chunk

import (
	"delorean/internal/flat"
	"delorean/internal/isa"
	"delorean/internal/signature"
)

// TruncReason classifies why a chunk ended. The distinction that matters
// to DeLorean (paper Table 4): deterministic truncations reappear by
// themselves during replay and need no log; non-deterministic ones
// (Overflow, Collision) must be recorded in the CS log.
type TruncReason uint8

const (
	// SizeLimit: the chunk reached the standard chunk size. Deterministic.
	SizeLimit TruncReason = iota
	// Uncached: an uncached I/O access truncated the chunk. Deterministic.
	Uncached
	// Halt: the thread halted; final partial chunk. Deterministic.
	Halt
	// Overflow: a speculative store would have overflowed an L1 set.
	// NON-deterministic: logged in the CS log.
	Overflow
	// Collision: repeated squashes forced a progressively smaller chunk.
	// NON-deterministic: logged in the CS log.
	Collision
	// CSReplay: truncated during replay as dictated by a CS log entry.
	CSReplay
)

// String returns a short name.
func (r TruncReason) String() string {
	switch r {
	case SizeLimit:
		return "size"
	case Uncached:
		return "uncached"
	case Halt:
		return "halt"
	case Overflow:
		return "overflow"
	case Collision:
		return "collision"
	case CSReplay:
		return "cs-replay"
	}
	return "trunc(?)"
}

// NonDeterministic reports whether this truncation must be logged in the
// CS log to be reproduced.
func (r TruncReason) NonDeterministic() bool {
	return r == Overflow || r == Collision
}

// Chunk is one chunk's speculative state.
type Chunk struct {
	Proc  int
	SeqID uint64 // logical per-processor chunk sequence number (0-based)

	// Checkpoint is the architectural state at chunk start; a squash
	// restores it.
	Checkpoint isa.ThreadState

	// Target is the instruction budget for this chunk (the standard chunk
	// size, possibly reduced by collision backoff or a CS-log entry).
	Target int
	// Insts counts instructions retired inside the chunk so far.
	Insts int

	// Speculative write buffer: word address -> value, with insertion
	// order retained so commit applies writes deterministically.
	writes     flat.Table
	writeOrder []uint32

	// Read/write footprints: exact line sets (for overflow accounting and
	// the exact-conflict oracle) and Bulk signatures (what the hardware
	// disambiguates with). lines maps each touched line to its
	// lineRead|lineWritten bits; wLines lists the written lines.
	RSig, WSig signature.Sig
	lines      flat.Table
	wLines     []uint32 // insertion order; deduplicated

	// fills journals the shared-state transitions (L2 installs, directory
	// updates) the chunk's speculative cache fills deferred; the engine
	// replays them serially when the chunk commits and drops them on a
	// squash.
	fills []Fill

	// Completed marks a chunk whose execution finished and is awaiting
	// commit. Reason records why it ended.
	Completed bool
	Reason    TruncReason

	// Restarts counts squash-and-re-execute rounds of this logical chunk.
	Restarts int

	// Urgent marks a high-priority interrupt handler chunk, which in
	// PicoLog mode may commit out of its round-robin turn with the
	// arbiter recording its commit slot (paper footnote 1).
	Urgent bool

	// BudgetReason is the truncation reason to use when the chunk ends by
	// exhausting its instruction budget: SizeLimit for a standard chunk,
	// CSReplay when Target came from a CS log entry, Collision when
	// Target was reduced by collision backoff.
	BudgetReason TruncReason

	// SplitPiece marks a replay-only continuation of a chunk that
	// unexpectedly overflowed during replay; its commit shares the PI log
	// entry of the piece before it.
	SplitPiece bool

	// IOAtStart records how many uncached I/O loads the processor had
	// performed when the chunk started — checkpoint/interval-replay
	// bookkeeping.
	IOAtStart int
}

// New starts a chunk for proc with the given sequence number, register
// checkpoint and instruction budget.
func New(proc int, seqID uint64, ckpt isa.ThreadState, target int) *Chunk {
	return NewWith(Storage{}, proc, seqID, ckpt, target)
}

// Fill is one journaled speculative cache fill: the line and an engine-
// defined kind describing which shared-state transition to apply at
// commit (the chunk package does not interpret it).
type Fill struct {
	Line uint32
	Kind uint8
}

// Line footprint bits in Chunk.lines.
const (
	lineRead    = 1
	lineWritten = 2
)

// Storage is a chunk's reusable interior allocation: the speculative
// write buffer, line footprint and fill journal. Chunks start and die
// (commit or squash) millions of times per run; recycling these buffers
// through the engine's free lists removes the dominant per-chunk
// allocation cost.
//
// The written-line slice (WLines) is deliberately NOT part of Storage:
// its ownership escapes the chunk — commit requests and the arbiter's
// in-flight conflict window hold it after the chunk retires — so it is
// left to the garbage collector.
type Storage struct {
	writes, lines flat.Table
	writeOrder    []uint32
	fills         []Fill
}

// NewWith is New drawing interior buffers from st (a retired chunk's
// storage); zero-value Storage fields grow on first use.
func NewWith(st Storage, proc int, seqID uint64, ckpt isa.ThreadState, target int) *Chunk {
	return &Chunk{
		Proc:       proc,
		SeqID:      seqID,
		Checkpoint: ckpt,
		Target:     target,
		writes:     st.writes,
		writeOrder: st.writeOrder,
		lines:      st.lines,
		fills:      st.fills,
	}
}

// TakeStorage strips c's interior buffers, cleared for reuse, and
// returns them. The chunk object itself stays intact (pointer-identity
// checks against stale events keep working) but must not execute or
// buffer further accesses.
func (c *Chunk) TakeStorage() Storage {
	st := Storage{writes: c.writes, lines: c.lines, writeOrder: c.writeOrder[:0], fills: c.fills[:0]}
	st.writes.Reset()
	st.lines.Reset()
	c.writes, c.lines = flat.Table{}, flat.Table{}
	c.writeOrder, c.fills = nil, nil
	return st
}

// NoteFill journals a speculative cache fill for commit-time replay.
func (c *Chunk) NoteFill(line uint32, kind uint8) {
	c.fills = append(c.fills, Fill{Line: line, Kind: kind})
}

// Fills returns the journaled speculative fills in access order. Callers
// must not mutate the returned slice.
func (c *Chunk) Fills() []Fill { return c.fills }

// NoteRead records a load from line.
func (c *Chunk) NoteRead(line uint32) {
	if b, _ := c.lines.Ptr(line); *b&lineRead == 0 {
		*b |= lineRead
		c.RSig.Insert(line)
	}
}

// Write buffers a store of v to word addr, recording the line footprint.
// It reports whether the line is new to this chunk's write set.
func (c *Chunk) Write(addr uint32, v uint64) (newLine bool) {
	p, fresh := c.writes.Ptr(addr)
	if fresh {
		c.writeOrder = append(c.writeOrder, addr)
	}
	*p = v
	line := isa.LineOf(addr)
	if b, _ := c.lines.Ptr(line); *b&lineWritten == 0 {
		*b |= lineWritten
		c.wLines = append(c.wLines, line)
		c.WSig.Insert(line)
		return true
	}
	return false
}

// Load returns this chunk's buffered value for addr, if any.
func (c *Chunk) Load(addr uint32) (uint64, bool) { return c.writes.Get(addr) }

// WroteLine reports whether the chunk wrote to line (exact, not
// signature-based).
func (c *Chunk) WroteLine(line uint32) bool {
	b, _ := c.lines.Get(line)
	return b&lineWritten != 0
}

// ReadLine reports whether the chunk read line (exact).
func (c *Chunk) ReadLine(line uint32) bool {
	b, _ := c.lines.Get(line)
	return b&lineRead != 0
}

// WLines returns the written lines in first-write order. Callers must not
// mutate the returned slice.
func (c *Chunk) WLines() []uint32 { return c.wLines }

// NumWLines returns the written-line count.
func (c *Chunk) NumWLines() int { return len(c.wLines) }

// ConflictsWith reports whether other's write footprint conflicts with
// this chunk's read-or-write footprint. With exact set semantics when
// exact is true (the ablation oracle), otherwise with Bulk signature
// semantics (conservative: may report false conflicts).
func (c *Chunk) ConflictsWith(otherW *signature.Sig, otherWLines []uint32, exact bool) bool {
	if exact {
		for _, l := range otherWLines {
			if c.ReadLine(l) || c.WroteLine(l) {
				return true
			}
		}
		return false
	}
	return c.RSig.Intersects(otherW) || c.WSig.Intersects(otherW)
}

// Apply writes the buffered stores into memory in first-write order via
// the store callback (the commit's functional effect).
func (c *Chunk) Apply(store func(addr uint32, v uint64)) {
	for _, a := range c.writeOrder {
		v, _ := c.writes.Get(a)
		store(a, v)
	}
}

// StoreCount returns the number of distinct words written.
func (c *Chunk) StoreCount() int { return len(c.writeOrder) }

// Package trace is the execution observability layer: a
// zero-cost-when-disabled event sink the simulator, arbiter, recorder and
// replayer thread their lifecycle events through, plus exporters that
// turn a captured run into a Perfetto/chrome trace_event timeline and a
// counter registry snapshot.
//
// Determinism is the design constraint. Tracing is observation-only:
// every emission site reads engine state and appends to a stream, never
// the other way around, so recordings, replays and Stats are
// byte-identical with tracing enabled or disabled. Each simulated core
// writes to its own per-processor stream; engine-global events (commits,
// squashes-by-conflict, arbiter activity) go to a single global stream.
// Events() merges the streams by (time, stream, emission index) — a
// total deterministic order.
package trace

import (
	"sort"

	"delorean/internal/metrics"
)

// Kind classifies an event.
type Kind uint8

const (
	// ChunkStart: a core opened a chunk. Seq = chunk seqID, A = target size.
	ChunkStart Kind = iota
	// ChunkComplete: a chunk finished executing. Seq = seqID, A = retired
	// instructions, B = truncation reason, C = read/write signature
	// occupancy packed as (rpop<<32 | wpop).
	ChunkComplete
	// ChunkSubmit: the commit request left the core. Time is the arbiter
	// arrival time; Seq = seqID, A = retired instructions.
	ChunkSubmit
	// ChunkSquash: an uncommitted chunk was discarded. Seq = seqID,
	// A = instructions wasted, B = committing processor that caused it
	// (the chunk's own processor for an interrupt self-squash).
	ChunkSquash
	// ChunkCommit: a chunk committed. Seq = seqID, A = commit slot,
	// B = retired instructions, C = signature occupancy (rpop<<32 | wpop).
	ChunkCommit
	// DMACommit: a DMA transfer committed. A = commit slot, B = words.
	DMACommit
	// Window is reserved: it was emitted by a since-removed windowed
	// scheduler and keeps its value so later kinds keep theirs.
	Window
	// ArbQueue: arbiter occupancy sample. A = queued requests,
	// B = in-flight commits.
	ArbQueue
	// ArbDeny: the arbiter had ready requests but granted none.
	// A = deny reason (DenyReason), B = ready request count.
	ArbDeny
	// LogSample: recorder log growth at a commit. A = cumulative
	// memory-ordering raw bits (PI+CS+sizes), B = the committing
	// processor's cumulative CS/size raw bits, C = its cumulative input
	// log bits.
	LogSample
	// Divergence: replay diverged from the recording. Seq = first
	// divergent chunk seqID (or ^0), A = commit slot (or ^0).
	Divergence
	// Stall: a core left a blocked state. A = blocked cycles, B = the
	// block reason as reported by the engine.
	Stall
	// ReplaySegment: one checkpoint-delimited interval of a segmented
	// replay, emitted by the driver after the workers finish. Seq = the
	// interval index, A = start commit slot, B = end commit slot (the
	// actually reached slot for the final, unbounded interval), C = 1 if
	// the interval reproduced the recording, 0 if it diverged.
	ReplaySegment
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case ChunkStart:
		return "chunk-start"
	case ChunkComplete:
		return "chunk-complete"
	case ChunkSubmit:
		return "chunk-submit"
	case ChunkSquash:
		return "chunk-squash"
	case ChunkCommit:
		return "chunk-commit"
	case DMACommit:
		return "dma-commit"
	case Window:
		return "window"
	case ArbQueue:
		return "arb-queue"
	case ArbDeny:
		return "arb-deny"
	case LogSample:
		return "log-sample"
	case Divergence:
		return "divergence"
	case Stall:
		return "stall"
	case ReplaySegment:
		return "replay-segment"
	}
	return "event(?)"
}

// Deny reasons carried by ArbDeny events.
const (
	DenyConcurrency uint64 = iota + 1 // max concurrent commits reached
	DenyPolicy                        // ordering policy holds the head
	DenyProcOrder                     // older same-processor commit pending
	DenyConflict                      // write-set conflict with in-flight commit
)

// Event is one timeline entry. The interpretation of Seq/A/B/C depends on
// Kind (documented on the constants above).
type Event struct {
	Time uint64
	Proc int32 // subject processor; -1 for machine-global events
	Kind Kind
	Seq  uint64
	A    uint64
	B    uint64
	C    uint64
}

// Stream is an append-only event sequence. Each simulated core owns one;
// the sink's global stream carries the machine-global events.
type Stream struct {
	events []Event
}

// Emit appends an event.
func (s *Stream) Emit(ev Event) {
	if s == nil {
		return
	}
	s.events = append(s.events, ev)
}

// Len returns the number of events emitted so far.
func (s *Stream) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Sink collects one run's trace: per-processor streams for core-side
// events plus a global stream for machine-global events.
type Sink struct {
	nprocs int
	procs  []Stream
	global Stream

	// Counters is the run's counter registry: end-of-run aggregates
	// (commit/squash/truncation breakdowns, stall causes, arbiter
	// contention, log sizes) filled by the engine and recorder.
	Counters *metrics.Registry
}

// NewSink returns a sink for a machine with nprocs processors.
func NewSink(nprocs int) *Sink {
	return &Sink{nprocs: nprocs, procs: make([]Stream, nprocs), Counters: metrics.NewRegistry()}
}

// NProcs returns the processor count the sink was built for (0 for a
// nil sink).
func (s *Sink) NProcs() int {
	if s == nil {
		return 0
	}
	return s.nprocs
}

// Proc returns processor p's stream (nil when the sink itself is nil, so
// callers can hold the result unconditionally and Emit stays a no-op).
func (s *Sink) Proc(p int) *Stream {
	if s == nil {
		return nil
	}
	return &s.procs[p]
}

// Global returns the serial-section stream.
func (s *Sink) Global() *Stream {
	if s == nil {
		return nil
	}
	return &s.global
}

// Events merges all streams into one deterministic timeline, ordered by
// (time, stream, emission index) with the global stream first among ties.
// Each stream's content and internal order are themselves deterministic,
// so the key is a total order and the merged timeline is reproducible
// run to run.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	type tagged struct {
		ev     Event
		stream int // -1 global, else processor index
		idx    int
	}
	n := len(s.global.events)
	for i := range s.procs {
		n += len(s.procs[i].events)
	}
	all := make([]tagged, 0, n)
	for i, ev := range s.global.events {
		all = append(all, tagged{ev: ev, stream: -1, idx: i})
	}
	for p := range s.procs {
		for i, ev := range s.procs[p].events {
			all = append(all, tagged{ev: ev, stream: p, idx: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.Time != b.ev.Time {
			return a.ev.Time < b.ev.Time
		}
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.idx < b.idx
	})
	out := make([]Event, n)
	for i, t := range all {
		out[i] = t.ev
	}
	return out
}

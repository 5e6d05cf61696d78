package delorean

import (
	"context"
	"io"

	"delorean/internal/trace"
)

// ExecTrace is a captured execution timeline: chunk lifecycles per
// processor, commits and squashes in global order, arbiter contention,
// recorder log growth, and end-of-run counters. Capture one with
// RecordTraced or ReplayTraced. Tracing is observation-only — a traced
// run produces byte-identical recordings, replays and statistics to an
// untraced one.
type ExecTrace struct {
	sink *trace.Sink
}

// TraceCounter is one named end-of-run metric from a traced run.
type TraceCounter struct {
	Name  string
	Value float64
}

// WritePerfetto renders the timeline as chrome trace_event JSON,
// loadable in ui.perfetto.dev or chrome://tracing: chunk execution as
// slices on per-processor tracks, commits/squashes as instants, arbiter
// occupancy and log growth as counter tracks. One simulated cycle maps
// to one microsecond on the viewer's time axis.
func (t *ExecTrace) WritePerfetto(w io.Writer) error {
	return t.sink.WriteTraceEvent(w)
}

// Counters returns the run's end-of-run counter snapshot (cycle and
// instruction totals, squash and truncation breakdowns, stall causes,
// arbiter contention), sorted by name.
func (t *ExecTrace) Counters() []TraceCounter {
	if t == nil || t.sink == nil || t.sink.Counters == nil {
		return nil
	}
	snap := t.sink.Counters.Snapshot()
	out := make([]TraceCounter, len(snap))
	for i, c := range snap {
		out[i] = TraceCounter{Name: c.Name, Value: c.Value}
	}
	return out
}

// Counter returns one named counter's value (0 when absent).
func (t *ExecTrace) Counter(name string) float64 {
	if t == nil || t.sink == nil || t.sink.Counters == nil {
		return 0
	}
	return t.sink.Counters.Get(name)
}

// Events returns the number of timeline events captured.
func (t *ExecTrace) Events() int {
	if t == nil || t.sink == nil {
		return 0
	}
	return len(t.sink.Events())
}

// RecordTraced is Record with timeline capture: it additionally returns
// the recording run's ExecTrace. The trace is also retained on the
// Recording (see Trace).
func RecordTraced(cfg Config, mode Mode, w *Workload) (*Recording, *ExecTrace, error) {
	sink := trace.NewSink(cfg.machine().NProcs)
	rec, err := record(context.Background(), cfg, mode, w, sink)
	if err != nil {
		return nil, nil, err
	}
	return rec, &ExecTrace{sink: sink}, nil
}

// Trace returns the recording run's execution trace when the recording
// was made with RecordTraced (nil otherwise; loaded recordings never
// carry one — traces are host-side and not serialized).
func (r *Recording) Trace() *ExecTrace {
	if r.rec.Trace == nil {
		return nil
	}
	return &ExecTrace{sink: r.rec.Trace}
}

// ReplayTraced is Replay with timeline capture: it additionally returns
// the replay run's ExecTrace. A non-deterministic replay's trace ends
// with a divergence marker locating the first detected divergence.
//
// ReplayTraced is safe to call concurrently on the same Recording (see
// the Recording concurrency contract): each call allocates a private
// trace sink, so concurrent traced replays never share event buffers.
func (r *Recording) ReplayTraced(opts ReplayWith) (ReplayResult, *ExecTrace, error) {
	sink := trace.NewSink(r.rec.NProcs)
	res, err := r.replay(opts, -1, sink)
	if err != nil {
		return ReplayResult{}, nil, err
	}
	return res, &ExecTrace{sink: sink}, nil
}

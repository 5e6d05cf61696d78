package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// A nil sink (tracing disabled) must make every accessor a no-op so
// emission sites can hold stream pointers unconditionally.
func TestNilSafety(t *testing.T) {
	var s *Sink
	if s.NProcs() != 0 {
		t.Errorf("nil sink NProcs = %d", s.NProcs())
	}
	if st := s.Proc(3); st != nil {
		t.Errorf("nil sink Proc = %v", st)
	}
	if st := s.Global(); st != nil {
		t.Errorf("nil sink Global = %v", st)
	}
	if evs := s.Events(); evs != nil {
		t.Errorf("nil sink Events = %v", evs)
	}
	var st *Stream
	st.Emit(Event{Kind: ChunkStart}) // must not panic
	if st.Len() != 0 {
		t.Errorf("nil stream Len = %d", st.Len())
	}
}

// Events() must order by (time, stream, emission index) with the global
// stream first among ties, regardless of emission order across streams.
func TestEventsMergeOrder(t *testing.T) {
	s := NewSink(2)
	// Out-of-order times across streams; in-stream order preserved.
	s.Proc(1).Emit(Event{Time: 5, Proc: 1, Kind: ChunkStart, Seq: 10})
	s.Proc(0).Emit(Event{Time: 5, Proc: 0, Kind: ChunkStart, Seq: 20})
	s.Global().Emit(Event{Time: 5, Proc: -1, Kind: DMACommit, A: 2})
	s.Global().Emit(Event{Time: 1, Proc: -1, Kind: ArbQueue})
	s.Proc(0).Emit(Event{Time: 3, Proc: 0, Kind: ChunkComplete, Seq: 20})

	evs := s.Events()
	want := []Event{
		{Time: 1, Proc: -1, Kind: ArbQueue},
		{Time: 3, Proc: 0, Kind: ChunkComplete, Seq: 20},
		{Time: 5, Proc: -1, Kind: DMACommit, A: 2}, // global wins the time tie
		{Time: 5, Proc: 0, Kind: ChunkStart, Seq: 20},
		{Time: 5, Proc: 1, Kind: ChunkStart, Seq: 10},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("merged order:\n got %v\nwant %v", evs, want)
	}
	// Merging is read-only: a second call returns the same timeline.
	if !reflect.DeepEqual(s.Events(), want) {
		t.Fatalf("second Events() call differs")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{ChunkStart, ChunkComplete, ChunkSubmit, ChunkSquash,
		ChunkCommit, DMACommit, Window, ArbQueue, ArbDeny, LogSample,
		Divergence, Stall, ReplaySegment}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || name == "event(?)" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

// sampleSink builds a sink exercising every event kind the exporter
// handles.
func sampleSink() *Sink {
	s := NewSink(2)
	s.Proc(0).Emit(Event{Time: 0, Proc: 0, Kind: ChunkStart, Seq: 1, A: 200})
	s.Proc(0).Emit(Event{Time: 90, Proc: 0, Kind: ChunkComplete, Seq: 1, A: 200, B: 0, C: 7<<32 | 3})
	s.Proc(0).Emit(Event{Time: 95, Proc: 0, Kind: ChunkSubmit, Seq: 1, A: 200})
	s.Proc(1).Emit(Event{Time: 0, Proc: 1, Kind: ChunkStart, Seq: 2, A: 200})
	s.Global().Emit(Event{Time: 100, Proc: -1, Kind: ArbQueue, A: 1, B: 0})
	s.Global().Emit(Event{Time: 110, Proc: -1, Kind: ArbDeny, A: DenyPolicy, B: 1})
	s.Global().Emit(Event{Time: 120, Proc: 0, Kind: ChunkCommit, Seq: 1, A: 0, B: 200, C: 7<<32 | 3})
	s.Global().Emit(Event{Time: 120, Proc: 0, Kind: LogSample, A: 3, B: 0, C: 0})
	s.Global().Emit(Event{Time: 121, Proc: 1, Kind: ChunkSquash, Seq: 2, A: 150, B: 0})
	s.Global().Emit(Event{Time: 130, Proc: -1, Kind: DMACommit, A: 1, B: 16})
	s.Global().Emit(Event{Time: 150, Proc: 1, Kind: Stall, A: 30, B: 2})
	s.Global().Emit(Event{Time: 160, Proc: 1, Kind: Divergence, Seq: ^uint64(0), A: ^uint64(0)})
	s.Global().Emit(Event{Time: 170, Proc: -1, Kind: ReplaySegment, Seq: 1, A: 40, B: 80, C: 1})
	s.Counters.Set("cycles", 160)
	s.Counters.Add("chunks.committed", 1)
	return s
}

// The Perfetto export must be valid trace_event JSON, cover every
// emitted timeline event, and be byte-deterministic.
func TestWriteTraceEventRoundTrip(t *testing.T) {
	s := sampleSink()
	var buf bytes.Buffer
	if err := s.WriteTraceEvent(&buf); err != nil {
		t.Fatalf("WriteTraceEvent: %v", err)
	}
	n, err := ValidateTraceEvent(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateTraceEvent: %v\n%s", err, buf.Bytes())
	}
	// 5 thread-name metadata rows (2 procs + arbiter + logs + replay
	// segments) plus one row per timeline event except the two
	// ChunkStarts, which only open slices (one closes via complete, one
	// via squash — the squash emits both the closing slice and its
	// instant).
	want := 5 + len(s.Events()) - 2 + 1
	if n != want {
		t.Errorf("exported %d events, want %d", n, want)
	}

	var buf2 bytes.Buffer
	if err := s.WriteTraceEvent(&buf2); err != nil {
		t.Fatalf("second WriteTraceEvent: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("export is not byte-deterministic")
	}
}

func TestValidateTraceEventRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", `{`},
		{"missing array", `{"otherData":{}}`},
		{"bad phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`},
		{"missing name", `{"traceEvents":[{"ph":"i","ts":0,"pid":0,"tid":0}]}`},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`},
		{"missing tid", `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0}]}`},
	}
	for _, c := range cases {
		if _, err := ValidateTraceEvent([]byte(c.data)); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if n, err := ValidateTraceEvent([]byte(`{"traceEvents":[]}`)); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
}

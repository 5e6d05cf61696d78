package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Perfetto / chrome trace_event export. The JSON Object Format is the
// lowest common denominator both chrome://tracing and ui.perfetto.dev
// load: {"traceEvents": [...]} where each event carries a phase ("X"
// complete slice, "i" instant, "C" counter, "M" metadata), a timestamp in
// microseconds, and pid/tid coordinates. Simulated cycles map 1:1 onto
// microseconds — absolute wall time is meaningless inside the simulator,
// only the cycle axis matters.

// teEvent is one trace_event entry. Field order and the sorted-key maps
// encoding/json produces keep the output byte-deterministic.
type teEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Thread IDs inside the exported process: processor p is tid p, and the
// machine-global rows follow the processors.
const (
	tidArbiter = 1 << 20 // arbiter / commit pipeline row
	tidLog     = 1<<20 + 2
	tidReplay  = 1<<20 + 3 // segmented-replay interval spans (slot axis)
)

var truncNames = map[uint64]string{
	0: "size", 1: "uncached", 2: "halt", 3: "overflow", 4: "collision", 5: "cs-replay",
}

var denyNames = map[uint64]string{
	DenyConcurrency: "concurrency",
	DenyPolicy:      "policy",
	DenyProcOrder:   "proc-order",
	DenyConflict:    "conflict",
}

func sigOcc(c uint64) (rpop, wpop uint64) { return c >> 32, c & 0xffffffff }

// WriteTraceEvent renders the sink as chrome trace_event JSON. Chunk
// execution appears as complete slices on each processor's row (paired
// ChunkStart/ChunkComplete events; a chunk squashed mid-execution is
// closed at the squash point), squashes and commits as instants, arbiter
// occupancy and recorder log growth as counter tracks, and the counter
// registry as process-level metadata.
func (s *Sink) WriteTraceEvent(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev teEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	// Thread-name metadata.
	meta := func(tid int, name string) error {
		return emit(teEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	for p := 0; p < s.nprocs; p++ {
		if err := meta(p, fmt.Sprintf("proc %d", p)); err != nil {
			return err
		}
	}
	if err := meta(tidArbiter, "arbiter"); err != nil {
		return err
	}
	if err := meta(tidLog, "logs"); err != nil {
		return err
	}
	if err := meta(tidReplay, "replay segments"); err != nil {
		return err
	}

	// Open chunk-slice start times per processor: ChunkStart pairs with
	// the next ChunkComplete or ChunkSquash of the same seqID.
	type open struct {
		t   uint64
		seq uint64
		ok  bool
	}
	opens := make([]open, s.nprocs)
	closeSlice := func(p int32, end uint64, name string, args map[string]any) error {
		o := &opens[p]
		if !o.ok {
			return nil
		}
		o.ok = false
		dur := uint64(0)
		if end > o.t {
			dur = end - o.t
		}
		return emit(teEvent{Name: name, Cat: "chunk", Ph: "X", Ts: o.t, Dur: dur,
			Pid: 0, Tid: int(p), Args: args})
	}

	for _, ev := range s.Events() {
		var err error
		switch ev.Kind {
		case ChunkStart:
			if ev.Proc >= 0 && int(ev.Proc) < s.nprocs {
				opens[ev.Proc] = open{t: ev.Time, seq: ev.Seq, ok: true}
			}
		case ChunkComplete:
			rp, wp := sigOcc(ev.C)
			err = closeSlice(ev.Proc, ev.Time, fmt.Sprintf("chunk %d", ev.Seq), map[string]any{
				"insts": ev.A, "trunc": truncNames[ev.B], "rsig-bits": rp, "wsig-bits": wp,
			})
		case ChunkSubmit:
			err = emit(teEvent{Name: "submit", Cat: "commit", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: int(ev.Proc), Args: map[string]any{"seq": ev.Seq, "insts": ev.A}})
		case ChunkSquash:
			if int(ev.Proc) < s.nprocs && opens[ev.Proc].ok && opens[ev.Proc].seq == ev.Seq {
				if err = closeSlice(ev.Proc, ev.Time, fmt.Sprintf("chunk %d (squashed)", ev.Seq), nil); err != nil {
					break
				}
			}
			err = emit(teEvent{Name: "squash", Cat: "squash", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: int(ev.Proc), Args: map[string]any{"seq": ev.Seq, "wasted": ev.A, "by": ev.B}})
		case ChunkCommit:
			rp, wp := sigOcc(ev.C)
			err = emit(teEvent{Name: "commit", Cat: "commit", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: int(ev.Proc),
				Args: map[string]any{"seq": ev.Seq, "slot": ev.A, "insts": ev.B, "rsig-bits": rp, "wsig-bits": wp}})
		case DMACommit:
			err = emit(teEvent{Name: "dma", Cat: "commit", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: tidArbiter, Args: map[string]any{"slot": ev.A, "words": ev.B}})
		case ArbQueue:
			err = emit(teEvent{Name: "arbiter occupancy", Ph: "C", Ts: ev.Time,
				Pid: 0, Tid: tidArbiter, Args: map[string]any{"queued": ev.A, "inflight": ev.B}})
		case ArbDeny:
			err = emit(teEvent{Name: "deny", Cat: "arbiter", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: tidArbiter, Args: map[string]any{"reason": denyNames[ev.A], "ready": ev.B}})
		case LogSample:
			err = emit(teEvent{Name: "log bits", Ph: "C", Ts: ev.Time,
				Pid: 0, Tid: tidLog,
				Args: map[string]any{"mem-ordering": ev.A,
					fmt.Sprintf("p%d cs", ev.Proc): ev.B, fmt.Sprintf("p%d input", ev.Proc): ev.C}})
		case Divergence:
			err = emit(teEvent{Name: "DIVERGENCE", Cat: "replay", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: int(ev.Proc) & (1<<20 - 1),
				Args: map[string]any{"seq": int64(ev.Seq), "slot": int64(ev.A)}})
		case Stall:
			err = emit(teEvent{Name: "stall", Cat: "stall", Ph: "i", Ts: ev.Time,
				Pid: 0, Tid: int(ev.Proc), Args: map[string]any{"cycles": ev.A, "why": ev.B}})
		case ReplaySegment:
			// The segment row's axis is commit slots, not cycles: each
			// interval spans [A, B) of the recording's commit order.
			verdict := "ok"
			if ev.C == 0 {
				verdict = "divergent"
			}
			dur := uint64(0)
			if ev.B > ev.A {
				dur = ev.B - ev.A
			}
			err = emit(teEvent{Name: fmt.Sprintf("interval %d", ev.Seq), Cat: "replay", Ph: "X",
				Ts: ev.A, Dur: dur, Pid: 0, Tid: tidReplay,
				Args: map[string]any{"start-slot": ev.A, "end-slot": ev.B, "verdict": verdict}})
		}
		if err != nil {
			return err
		}
	}

	if _, err := bw.WriteString("\n],\n\"otherData\":"); err != nil {
		return err
	}
	other := map[string]any{}
	if s.Counters != nil {
		for _, c := range s.Counters.Snapshot() {
			other[c.Name] = c.Value
		}
	}
	b, err := json.Marshal(other)
	if err != nil {
		return err
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if _, err := bw.WriteString("}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateTraceEvent parses data as chrome trace_event JSON Object Format
// and checks every event is well-formed (known phase, name, in-range
// pid/tid). It returns the event count.
func ValidateTraceEvent(data []byte) (int, error) {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	validPh := map[string]bool{"X": true, "i": true, "I": true, "C": true, "M": true, "B": true, "E": true}
	for i, ev := range doc.TraceEvents {
		var ph, name string
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil || !validPh[ph] {
			return 0, fmt.Errorf("trace: event %d: missing or unknown phase %s", i, ev["ph"])
		}
		if raw, ok := ev["name"]; !ok || json.Unmarshal(raw, &name) != nil || name == "" {
			return 0, fmt.Errorf("trace: event %d: missing name", i)
		}
		if ph != "M" {
			var ts float64
			if raw, ok := ev["ts"]; !ok || json.Unmarshal(raw, &ts) != nil || ts < 0 {
				return 0, fmt.Errorf("trace: event %d (%s): missing timestamp", i, name)
			}
		}
		for _, coord := range []string{"pid", "tid"} {
			var v float64
			if raw, ok := ev[coord]; !ok || json.Unmarshal(raw, &v) != nil || v < 0 {
				return 0, fmt.Errorf("trace: event %d (%s): missing %s", i, name, coord)
			}
		}
	}
	return len(doc.TraceEvents), nil
}

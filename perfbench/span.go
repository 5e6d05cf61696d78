package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's start; cpu is the process CPU time the call consumed, which
// on a single closed-loop caller is the call's own work plus the GC it
// triggered.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	CPU    time.Duration `json:"cpu_ns"`
	cpu0   time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced path: every method is a no-op, so the call sites are the
// same in traced and untraced ops.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	c := processCPU()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, cpu0: c})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	c := processCPU()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	s.CPU = c - s.cpu0
}

// call runs f inside a span.
func (t *tracer) call(name string, op, parent int, f func() error) error {
	id := t.begin(name, op, parent)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns, per span id, its duration minus the part of it
// that its children cover (children of one parent may overlap, so their
// union is subtracted, not their sum).
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := time.Duration(0)
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			st, en := max(c.Start, s.Start), min(c.End, s.End)
			if en <= st {
				continue
			}
			if st > curE {
				covered += curE - curS
				curS, curE = st, en
			} else if en > curE {
				curE = en
			}
		}
		covered += curE - curS
		self[i] = s.End - s.Start - covered
	}
	return self
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON span per line.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// printSpanTable writes, per span name, the count and the median wall,
// self and CPU time per span.
func printSpanTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct{ wall, self, cpu []float64 }
	by := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.wall = append(a.wall, ms(s.End-s.Start))
		a.self = append(a.self, ms(self[i]))
		a.cpu = append(a.cpu, ms(s.CPU))
	}
	fmt.Fprintf(w, "  %-22s %7s %12s %12s %12s\n", "span", "count", "wall p50 ms", "self p50 ms", "cpu p50 ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-22s %7d %12.3f %12.3f %12.3f\n", n, len(a.wall), median(a.wall), median(a.self), median(a.cpu))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

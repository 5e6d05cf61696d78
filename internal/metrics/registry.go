package metrics

import (
	"fmt"
	"io"
	"sort"
)

// Counter is one named metric sample.
type Counter struct {
	Name  string
	Value float64
}

// Registry is an ordered set of named counters — the snapshot surface the
// observability layer exposes on recordings and traces. It is not
// goroutine-safe; each run writes only to its own registry. A nil
// registry is inert: writes are dropped and reads return zero, so
// instrumentation sites can hold one unconditionally.
type Registry struct {
	vals map[string]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vals: make(map[string]float64)}
}

// Add increments the named counter by d (creating it at zero).
func (r *Registry) Add(name string, d float64) {
	if r == nil {
		return
	}
	r.vals[name] = r.vals[name] + d
}

// Set overwrites the named counter.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.vals[name] = v
}

// SetMax raises the named counter to v if v is greater (creating it at
// v) — a high-water-mark gauge, e.g. the serving store's peak resident
// bytes.
func (r *Registry) SetMax(name string, v float64) {
	if r == nil {
		return
	}
	if cur, ok := r.vals[name]; !ok || v > cur {
		r.vals[name] = v
	}
}

// Get returns the named counter's value (0 when absent).
func (r *Registry) Get(name string) float64 {
	if r == nil {
		return 0
	}
	return r.vals[name]
}

// Len returns the number of counters.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.vals)
}

// Snapshot returns the counters sorted by name — a deterministic view
// regardless of insertion order (nil for a nil registry).
func (r *Registry) Snapshot() []Counter {
	if r == nil {
		return nil
	}
	out := make([]Counter, 0, len(r.vals))
	for k, v := range r.vals {
		out = append(out, Counter{Name: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the registry in the Prometheus text exposition
// style — one "name value" line per counter, sorted by name — the
// /metrics wire format of the serving daemon. Counter names here are
// already dot-separated identifiers without spaces; they pass through
// unescaped.
//
// Callers serializing access to a shared registry with a lock should
// prefer Snapshot under the lock followed by WriteCounters outside it:
// WriteText's writes block on the consumer, and a Registry lock held
// across a slow network peer stalls every other registry user.
func (r *Registry) WriteText(w io.Writer) error {
	return WriteCounters(w, r.Snapshot())
}

// WriteCounters renders an already-taken snapshot in the WriteText wire
// format. Splitting the snapshot from the write is what lets a serving
// handler drop its registry lock before touching the network.
func WriteCounters(w io.Writer, cs []Counter) error {
	for _, c := range cs {
		if _, err := fmt.Fprintf(w, "%s %v\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the registry as an aligned two-column table.
func (r *Registry) Table(title string) *Table {
	t := &Table{Title: title, Cols: []string{"counter", "value"}}
	for _, c := range r.Snapshot() {
		t.AddRow(c.Name, F(c.Value))
	}
	return t
}

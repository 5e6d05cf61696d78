package runner

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatalf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatalf("Workers(<=0) must be positive, got %d / %d", Workers(0), Workers(-1))
	}
}

// TestMapOrdering checks results land at their input index regardless of
// worker count or completion order.
func TestMapOrdering(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		out, err := Map(w, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestMapError checks the reported error is the lowest failing index's,
// independent of scheduling.
func TestMapError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, w := range []int{1, 8} {
		_, err := Map(w, 50, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, errLow
			case 33:
				return 0, errHigh
			}
			return i, nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", w, err)
		}
	}
}

// TestMapBound checks concurrency never exceeds the worker bound.
func TestMapBound(t *testing.T) {
	const w = 3
	var cur, peak atomic.Int64
	Map(w, 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return struct{}{}, nil
	})
	if p := peak.Load(); p > w {
		t.Fatalf("observed %d concurrent tasks, bound %d", p, w)
	}
}

// TestMemoSingleFlight hammers one key from many goroutines and checks
// compute ran exactly once and everyone saw its value.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	out, _ := Map(16, 200, func(i int) (int, error) {
		return m.Do("key", func() int {
			calls.Add(1)
			return 42
		}), nil
	})
	if c := calls.Load(); c != 1 {
		t.Fatalf("compute ran %d times, want 1", c)
	}
	for i, v := range out {
		if v != 42 {
			t.Fatalf("caller %d saw %d", i, v)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestMemoDistinctKeys checks keys don't collide and each computes once.
func TestMemoDistinctKeys(t *testing.T) {
	type key struct{ a, b int }
	var m Memo[key, int]
	var calls atomic.Int64
	Map(8, 100, func(i int) (int, error) {
		k := key{a: i % 10, b: i % 5} // 10 distinct keys, 10 callers each
		return m.Do(k, func() int {
			calls.Add(1)
			return k.a*100 + k.b
		}), nil
	})
	if c := calls.Load(); c != 10 {
		t.Fatalf("compute ran %d times, want 10", c)
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
}

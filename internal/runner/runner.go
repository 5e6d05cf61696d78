// Package runner is the experiment harness's work-scheduling layer.
//
// The paper's evaluation re-runs dozens of independent deterministic
// simulations (one per workload x machine config x mode x seed tuple).
// Each simulation is single-threaded and seed-deterministic, so runs can
// execute concurrently without perturbing results — the only requirement
// is that results are gathered by index, never by completion order, so
// rendered tables stay byte-identical to a sequential run.
//
// Two primitives cover every harness in internal/experiments:
//
//   - Map fans n index-addressed tasks across a bounded goroutine pool.
//   - Memo is a keyed single-flight cache, so each distinct baseline run
//     (the RC/SC/BulkSC reference points several figures share) executes
//     exactly once per process regardless of how many figures consume it.
package runner

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count setting: n if positive, GOMAXPROCS if
// zero or negative (the "size to the host" default).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs f(0..n-1) across at most workers goroutines and returns the
// results indexed by input — output order is independent of scheduling.
// If any f returns an error, Map returns the error of the lowest index
// that failed (again independent of scheduling); remaining results are
// still gathered. workers <= 1 runs inline with no goroutines at all,
// which is the forced-sequential mode the determinism test compares
// against.
func Map[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if Workers(workers) == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = f(i); err != nil {
				return out, err
			}
		}
		return out, nil
	}

	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				out[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Memo is a keyed single-flight memo cache: for each key, compute runs
// exactly once per Memo even under concurrent Do calls; later (and
// concurrent) callers get the stored result. The zero value is ready to
// use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// Do returns the memoized value for key, running compute to fill it if
// this is the key's first caller. Concurrent callers for the same key
// block until the first one's compute finishes.
func (c *Memo[K, V]) Do(key K, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// Len reports the number of distinct keys computed or in flight —
// the harness uses it to report how many simulations memoization saved.
func (c *Memo[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

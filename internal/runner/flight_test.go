package runner

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightSingleLeader: N concurrent Joins for one key elect exactly
// one leader, and every waiter observes the leader's result.
func TestFlightSingleLeader(t *testing.T) {
	var f Flight[string, int]
	const n = 16
	var leaders, computes, joined atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, leader := f.Join("k")
			joined.Add(1)
			if leader {
				leaders.Add(1)
				<-release // hold the flight open until all joined
				computes.Add(1)
				c.Finish(42, nil)
			}
			results[i], errs[i] = c.Result()
		}(i)
	}
	// Release the leader only once every goroutine has joined: a Join
	// after Finish rightly starts a fresh flight with its own leader.
	for joined.Load() < n {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if leaders.Load() != 1 {
		t.Fatalf("%d leaders for one key, want 1", leaders.Load())
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computes.Load())
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("waiter %d got (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
	if f.InFlight() != 0 {
		t.Fatalf("%d flights left after Finish, want 0", f.InFlight())
	}
}

// TestFlightRetiresKey: after Finish, the next Join for the same key is
// a fresh flight (errors are not sticky).
func TestFlightRetiresKey(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	c, leader := f.Join("k")
	if !leader {
		t.Fatal("first Join not leader")
	}
	c.Finish(0, boom)
	if _, err := c.Result(); !errors.Is(err, boom) {
		t.Fatalf("Result after failed flight: %v, want boom", err)
	}
	c2, leader := f.Join("k")
	if !leader {
		t.Fatal("Join after Finish should start a fresh flight")
	}
	c2.Finish(7, nil)
	if v, err := c2.Result(); err != nil || v != 7 {
		t.Fatalf("fresh flight got (%d, %v), want (7, nil)", v, err)
	}
}

// TestFlightIndependentKeys: distinct keys fly independently.
func TestFlightIndependentKeys(t *testing.T) {
	var f Flight[int, int]
	a, la := f.Join(1)
	b, lb := f.Join(2)
	if !la || !lb {
		t.Fatal("distinct keys must both elect leaders")
	}
	if f.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", f.InFlight())
	}
	b.Finish(2, nil)
	a.Finish(1, nil)
	if v, _ := a.Result(); v != 1 {
		t.Fatalf("key 1 got %d", v)
	}
	if v, _ := b.Result(); v != 2 {
		t.Fatalf("key 2 got %d", v)
	}
}

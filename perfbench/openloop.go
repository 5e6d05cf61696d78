package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one open-loop request: late is how far past its due time
// the generator's timer woke to send it (zero when the request was
// already overdue because every connection was busy: that wait is the
// server's and is in lat); lat is from the due time to the end of the
// response, so time spent behind a stalled request counts against it.
type timing struct{ late, lat time.Duration }

// openLoop sends requests 0..len(due)-1 at their due offsets from the
// start, on conns workers that each own one connection. A worker takes
// the next request in due order, sleeps until it is due, and sends it;
// when every worker is busy past a due time, that request starts late
// and its latency shows the wait. send must read the whole response.
func openLoop(due []time.Duration, conns int, send func(worker, i int)) []timing {
	out := make([]timing, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				var late time.Duration
				if d := due[i] - time.Since(start); d > 0 {
					if d > timerSlack {
						time.Sleep(d - timerSlack)
					}
					for time.Since(start) < due[i] {
						runtime.Gosched()
					}
					late = time.Since(start) - due[i]
				}
				send(w, i)
				out[i] = timing{late: late, lat: time.Since(start) - due[i]}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// timerSlack is how early a worker stops sleeping and starts polling the
// clock: Go's timers on Linux wake through epoll, whose timeout is in
// whole milliseconds, so a plain sleep overshoots by up to a
// millisecond — more than a cache hit takes to serve.
const timerSlack = 1200 * time.Microsecond

// poissonArrivals returns the due times of a Poisson process at rate
// per second over the given span.
func poissonArrivals(r *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

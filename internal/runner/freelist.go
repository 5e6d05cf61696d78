package runner

import (
	"runtime"
	"sync"
)

// FreeList is a small shared stack of recycled objects: simulator state
// too costly to rebuild per run (cache hierarchies, match-finder tables,
// replay scratch memories, hash buffers). Unlike sync.Pool it is not
// emptied by a garbage collection, so a GC between two runs does not
// force the next run to rebuild everything. It holds at most GOMAXPROCS
// objects, the number that can be in use at once; a Put into a full
// list drops its oldest object. Only objects handed back by Put are
// held, so it never holds more than were live at once. The zero value
// is ready to use and safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the most recently put object, if any.
func (l *FreeList[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x = l.free[n-1]
	var zero T
	l.free[n-1] = zero // the list no longer references x
	l.free = l.free[:n-1]
	return x, true
}

// Put hands x back for reuse. The caller must not use x afterwards.
func (l *FreeList[T]) Put(x T) {
	limit := runtime.GOMAXPROCS(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n >= limit {
		keep := copy(l.free, l.free[n-limit+1:])
		clear(l.free[keep:])
		l.free = l.free[:keep]
	}
	l.free = append(l.free, x)
}

package runner

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListBounded: a list holds only what was put, newest first, and
// never more than GOMAXPROCS objects; a put into a full list drops the
// oldest.
func TestFreeListBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var l FreeList[int]
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned an object")
	}
	for i := 1; i <= 5; i++ {
		l.Put(i)
	}
	for _, want := range []int{5, 4, 3} {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d,%v, want %d,true", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok {
		t.Fatalf("list held %d beyond GOMAXPROCS = 3 objects", got)
	}
}

// TestFreeListConcurrent takes objects from and returns them to one list
// on many goroutines at once (run it under -race). Each object is owned
// by one goroutine between Get and Put, so the marks never collide, and
// the list never holds more than GOMAXPROCS objects.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[*[8]int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				x, ok := l.Get()
				if !ok {
					x = new([8]int)
				}
				for k := range x {
					if x[k] != 0 {
						t.Errorf("object in use by goroutine %d handed out again", x[k]-1)
						return
					}
					x[k] = g + 1
				}
				for k := range x {
					x[k] = 0
				}
				l.Put(x)
			}
		}(g)
	}
	wg.Wait()
	held := 0
	for _, ok := l.Get(); ok; _, ok = l.Get() {
		held++
	}
	if max := runtime.GOMAXPROCS(0); held > max {
		t.Fatalf("list held %d objects, more than GOMAXPROCS = %d", held, max)
	}
}

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calRefMS is the calibration kernel's typical CPU time on the
// reference host, a 2-core Xeon guest. Every CPU-time metric is scaled
// by calRefMS / (the kernel's median CPU time in the same run), so it
// reads as CPU time on that host at its typical speed. The raw values
// are the reported ones divided by host.cal_factor.
//
// Why: CPU time per op is not immune to a busy host. The co-tenants
// that cause steal also share cores and caches. In one 90 s run of
// record-save ops, each followed by a four times longer version of the
// kernel's first two phases, ops that saw over 30% steal took 13% more
// CPU time than ops that saw 3–10%. Those phases took 11% more. Over
// seven minutes of record-save ops at low steal, though, op CPU time
// moved about 1.7 times as far as those phases did (in log terms), and
// about half as far as random lookups in a Go map larger than L2. The
// kernel adds such lookups, about 40% of its time, to follow the ops
// more closely. In 20 s slices of those seven minutes the spread of
// mean op CPU time over the kernel's median was 3.4% with the lookups
// and 5.0% without. The kernel is frozen benchmark code: a change to
// the repository cannot move it.
const calRefMS = 13.2

// calibrator takes kernel samples from a child process: this binary run
// with -calibrator. The child holds the kernel's memory, so the
// kernel's map cannot raise the measured process's heap goal and so
// change the GC work its ops pay.
type calibrator struct {
	mu      sync.Mutex
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     io.Reader
	err     error // the first failed exchange; later samples are skipped
	samples []float64
}

// newCalibrator starts the child and waits until its kernel is ready.
func newCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-calibrator")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibration process: %w", err)
	}
	c := &calibrator{cmd: cmd, in: in, out: out}
	var ready [8]byte
	if _, err := io.ReadFull(out, ready[:]); err != nil {
		c.close()
		return nil, fmt.Errorf("calibration process did not start: %w", err)
	}
	return c, nil
}

// close ends the child (it exits when its input closes) and waits for
// it.
func (c *calibrator) close() {
	c.in.Close()
	_ = c.cmd.Wait() // its exit status adds nothing to c.err
}

// sample has the child run the kernel once and records the kernel's
// CPU time.
func (c *calibrator) sample() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	var b [8]byte
	if _, err := c.in.Write(b[:1]); err != nil {
		c.err = fmt.Errorf("calibration sample: %w", err)
		return
	}
	if _, err := io.ReadFull(c.out, b[:]); err != nil {
		c.err = fmt.Errorf("calibration sample: %w", err)
		return
	}
	c.samples = append(c.samples, ms(time.Duration(binary.LittleEndian.Uint64(b[:]))))
}

// serveCalibrator is the child's side. It builds the kernel, runs it
// once so first touches stay out of the samples, and writes 8 bytes to
// say it is ready. Then, for each byte it reads, it runs the kernel on
// one locked OS thread and writes the thread CPU time in nanoseconds.
// It returns when its input ends.
func serveCalibrator(r io.Reader, w io.Writer) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k := newKernel()
	k.run()
	var b [8]byte
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	for {
		if _, err := io.ReadFull(r, b[:1]); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		c0 := threadCPU()
		k.run()
		binary.LittleEndian.PutUint64(b[:], uint64(threadCPU()-c0))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
}

// kernel is the calibration work and its memory.
type kernel struct {
	next  []int32  // a single-cycle permutation to chase
	table []uint32 // hash table updated by the dispatch loop
	prog  []byte   // the dispatch loop's "byte code"
	m     map[uint64]uint64
	sink  uint64
}

const (
	calChase = 1 << 19 // 2 MB of int32: a core's L2
	calTable = 8192
	calProg  = 4096
	calMap   = 1 << 18 // map entries: about 9 MB, beyond L2
)

func newKernel() *kernel {
	k := &kernel{next: make([]int32, calChase), table: make([]uint32, calTable), prog: make([]byte, calProg),
		m: make(map[uint64]uint64, calMap)}
	for i := range k.next {
		k.next[i] = int32((i*7919 + 1) % calChase)
	}
	x := uint32(12345)
	for i := range k.prog {
		x = x*1664525 + 1013904223
		k.prog[i] = byte(x >> 24 % 8)
	}
	y := uint64(1)
	for i := 0; i < calMap; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		k.m[y>>20] = y
	}
	return k
}

// run mixes what the simulator spends its time on: dependent loads
// over a large array, a byte-code dispatch loop, hashed table updates
// and map lookups. It does not allocate.
func (c *kernel) run() {
	p := int32(0)
	for i := 0; i < 40_000; i++ {
		p = c.next[p]
	}
	acc, r1, r2 := uint64(p), uint64(1), uint64(2)
	for i := 0; i < 100_000; i++ {
		switch c.prog[i&(calProg-1)] {
		case 0:
			r1 += r2
		case 1:
			r2 ^= r1 << 3
		case 2:
			r1 = r1*31 + 7
		case 3:
			if r1&1 == 0 {
				r2++
			}
		case 4:
			acc += r1 ^ r2
		case 5:
			c.table[uint32(r1*2654435761)>>19&(calTable-1)] += uint32(r2)
		case 6:
			acc += uint64(c.table[uint32(r2*2654435761)>>19&(calTable-1)])
		default:
			r2 = r2>>1 | r2<<63
		}
	}
	y := uint64(7)
	for i := 0; i < 75_000; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		acc += c.m[y>>20]
	}
	c.sink += acc + r1 + r2
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error()) // cannot fail with valid arguments
	}
	return time.Duration(ts.Nano())
}

// every samples once per period until stop is closed, then returns.
func (c *calibrator) every(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.sample()
		}
	}
}

// factor is calRefMS over the median sample: multiply a CPU time by it
// to express it at the reference host speed.
func (c *calibrator) factor() (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	if len(c.samples) == 0 {
		return 0, errors.New("no calibration samples")
	}
	return calRefMS / median(c.samples), nil
}

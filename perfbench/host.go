package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is this process's user+system CPU time, every thread
// included (GC workers too).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with valid arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of the tick counts in /proc/<pid>/stat; Linux fixes
// it at 100 for user space on every architecture this runs on.
const userHZ = 100

// pidCPU reads another process's user+system CPU time from
// /proc/<pid>/stat, at tick (10 ms) resolution.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; the fields
	// after its closing parenthesis start at field 3 (state).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB. pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM in %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so
// the next peakRSSMB(0) reads the peak since now.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: steal ticks and
// the total of user, nice, system, idle, iowait, irq, softirq and steal.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	return parseCPUTicks(string(b))
}

func parseCPUTicks(stat string) (cpuTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat first line %q", line)
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ { // guest time is already inside user
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealFrac is the share of all CPU time between a and b that the
// hypervisor gave to other guests.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

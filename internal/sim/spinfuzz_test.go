package sim_test

import (
	"reflect"
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/sim"
	"delorean/internal/workload"
)

// spinCase is a small machine whose cores spin-wait on a flag: after some
// private work (and optionally a locked counter update) every core spins
// until the flag is set, then meets the others at a counting barrier. The
// flag is set by processor 0's store, a DMA transfer or an interrupt
// handler, at a chosen time, or never; the instruction budget may end the
// run in the middle of the waits.
type spinCase struct {
	nprocs    int
	release   int // 0 store, 1 DMA, 2 interrupt handler, 3 never
	at        uint64
	urgent    bool
	lock      bool
	work      []int
	budget    uint64
	model     sim.Model
	mode      int // 0 free order, 1 PicoLog round robin, 2 random truncation
	chunkSize int
}

const (
	spinFlag     = 0x1000
	spinLock     = 0x2000
	spinCounter  = 0x3000
	spinArrivals = 0x4000
)

// newSpinCase decodes fuzz input; missing bytes read as zero.
func newSpinCase(data []byte) spinCase {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	c := spinCase{nprocs: 2 + next(3), release: next(4)}
	c.at = 40 * uint64(1+next(256))
	c.urgent = next(2) == 1
	c.lock = next(2) == 1
	for p := 0; p < c.nprocs; p++ {
		c.work = append(c.work, 8*next(256))
	}
	c.budget = 60_000
	if next(2) == 1 {
		c.budget = 100 + 50*uint64(next(256))
	}
	c.model = []sim.Model{sim.SC, sim.RC, sim.TSO}[next(3)]
	c.mode = next(3)
	c.chunkSize = 50 + 50*next(8)
	return c
}

func (c spinCase) programs() []*isa.Program {
	var progs []*isa.Program
	for p := 0; p < c.nprocs; p++ {
		a := isa.NewAsm()
		a.SetIntrVec("ih")
		a.LockInit()
		a.Ldi(1, spinFlag)
		a.Ldi(2, spinLock)
		a.Ldi(4, spinCounter)
		a.Ldi(5, 0)
		a.Ldi(6, int64(c.work[p]))
		a.Label("work")
		a.Addi(5, 5, 1)
		a.Blt(5, 6, "work")
		if c.lock {
			a.Lock(2, 7, "l")
			a.Ld(8, 4, 0)
			a.Addi(8, 8, 1)
			a.St(4, 0, 8)
			a.Unlock(2)
		}
		if p == 0 && c.release == 0 {
			a.Work(int(c.at/8), 9)
			a.Ldi(9, 1)
			a.St(1, 0, 9)
		}
		a.Label("spin")
		a.Ld(3, 1, 0)
		a.Beq(3, 10, "spin")
		a.Ldi(4, spinArrivals)
		a.Ldi(8, 1)
		a.Fadd(8, 4, 8)
		a.Label("bar")
		a.Ld(3, 4, 0)
		a.Blt(3, 14, "bar")
		a.Halt()
		a.Label("ih")
		a.Ldi(9, spinFlag)
		a.Ldi(7, 1)
		a.St(9, 0, 7)
		a.Iret()
		progs = append(progs, a.Assemble())
	}
	return progs
}

func (c spinCase) devices() *device.Devices {
	d := device.New(1)
	switch c.release {
	case 1:
		d.AddDMA(device.DMATransfer{Time: c.at, Addr: spinFlag, Data: []uint64{1}})
	case 2:
		d.AddInterrupt(device.Interrupt{Time: c.at, Proc: c.nprocs - 1, Type: 1, HighPriority: c.urgent})
	}
	d.Finalize()
	return d
}

func (c spinCase) config() sim.Config {
	cfg := sim.Default8()
	cfg.NProcs = c.nprocs
	cfg.MaxInsts = c.budget
	cfg.ChunkSize = c.chunkSize
	return cfg
}

func (c spinCase) runClassic() classicRun {
	w := &workload.Workload{Name: "spin", Progs: c.programs(), Devs: c.devices()}
	return runClassic(c.config(), c.model, w)
}

func (c spinCase) runEngine() engineRun {
	e := &bulksc.Engine{Cfg: c.config(), Progs: c.programs(), Mem: (&workload.Workload{}).InitMem(), Devs: c.devices()}
	switch c.mode {
	case 1:
		e.PicoLog, e.Policy = true, arbiter.NewRoundRobin(c.nprocs)
	case 2:
		e.RandomTrunc = bulksc.DefaultRandomTrunc(9)
	}
	return runEngine(e)
}

// FuzzSpinSkip checks skipping against stepping on small spin-wait
// machines, on the classic machine with every prior-work recorder
// attached and on the chunked engine: Stats, logs or observer streams,
// final memory and, on the engine, the trace and its end-of-run counters
// must be identical.
func FuzzSpinSkip(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 5, 0, 0, 10, 20, 0, 0, 0, 0, 0},        // store release
		{1, 1, 30, 0, 1, 3, 90, 1, 0, 1, 1, 2},        // DMA release, lock
		{2, 2, 50, 1, 0, 7, 7, 7, 0, 0, 2, 0, 3},      // urgent interrupt release
		{1, 2, 70, 0, 1, 1, 2, 3, 0, 2, 1, 5},         // plain interrupt release
		{0, 3, 0, 0, 0, 4, 4, 1, 37, 0, 0, 1},         // never released, budget ends mid-spin
		{2, 1, 200, 0, 0, 40, 0, 9, 1, 12, 2, 0, 4},   // DMA release, budget ends mid-spin
		{1, 0, 255, 1, 1, 100, 3, 1, 250, 1, 1, 7},    // store release, budget ends mid-spin
		{2, 3, 9, 0, 1, 0, 0, 0, 0, 0, 0, 2, 6},       // never released, free-running waits
		{0, 2, 12, 1, 1, 255, 1, 1, 99, 2, 0, 1},      // urgent interrupt, budget ends mid-spin
		{1, 1, 3, 0, 0, 0, 255, 0, 0, 2, 2, 3},        // early DMA
		{2, 0, 120, 0, 1, 12, 80, 160, 1, 200, 1, 2},  // lock contention, store release
		{49, 48, 1, 48, 49, 0, 88, 1, 49, 30, 48, 50}, // budget ends with two cores parked, one stepping
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newSpinCase(data)
		if a, b, _ := stepThenSkip(c.runClassic); !reflect.DeepEqual(a, b) {
			t.Errorf("classic %+v: skipping changed the run\n stepped %+v\n skipped %+v", c, a, b)
		}
		if a, b, _ := stepThenSkip(c.runEngine); !reflect.DeepEqual(a, b) {
			t.Errorf("engine %+v: skipping changed the run\n stepped %+v\n skipped %+v", c, a.Stats, b.Stats)
		}
	})
}

// Package diffcheck is the differential validation harness: a seeded
// random program/device generator, a cross-model and cross-mode oracle
// matrix, and a log fault-injection layer.
//
// The harness exists to answer one question mechanically: for any
// generated workload, do all the executions that must agree actually
// agree — SC vs RC vs chunked on race-free programs, record vs replay
// under perturbed timing, recordings across a serialization round trip,
// segmented vs sequential replay — and when a log is
// deliberately corrupted, does replay *detect* the divergence (a typed
// core.DivergenceError or core.ErrCorruptLog) rather than silently
// producing wrong memory or hanging?
//
// Everything is deterministic in the seed: a failure printed by
// cmd/delorean-fuzz reproduces with the same seed and options.
package diffcheck

import (
	"fmt"

	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/rng"
)

// Memory map shared by all generated programs (word addresses).
const (
	hotBase   = 0x10000 // 8-word hot region: severe cross-proc contention
	hotWords  = 8
	warmBase  = 0x12000 // warm shared region
	warmWords = 512
	lockBase  = 0x20000 // race-free mode: lock words, one per counter
	ctrBase   = 0x21000 // race-free mode: lock-protected counters
	lockSpan  = 16      // words between adjacent locks/counters (line-spread)
	privBase  = 0x1000000
	privSpan  = 0x80000 // per-processor private region stride
	dmaBase   = 0x900   // DMA ring written by GenDevices
)

// GenConfig tunes GenProgram. The zero value is not useful; start from
// DefaultGen and override.
type GenConfig struct {
	// Iters is the outer loop trip count; MinOps..MaxOps memory
	// operations are generated per iteration.
	Iters          int
	MinOps, MaxOps int

	// Conflict intensity: each memory operation's address lands in the
	// 8-word hot region with probability HotFrac, the warm shared region
	// with WarmFrac, and the processor's private region otherwise.
	HotFrac, WarmFrac float64

	// Operation mix: an op is an atomic (SWAP or FADD) with AtomicFrac,
	// a load feeding a value-dependent branch with BranchFrac, an
	// uncached I/O port read with IOFrac, and a plain load or store
	// otherwise. A FENCE follows any op with probability FenceFrac.
	AtomicFrac float64
	BranchFrac float64
	IOFrac     float64
	FenceFrac  float64

	// MaxWork bounds the private ALU work emitted between memory ops.
	MaxWork int

	// RaceFree generates a data-race-free program instead: private
	// traffic plus lock-protected counter increments, with no shared
	// value ever flowing into a branch or a private store. Its final
	// memory state is interleaving-independent, so SC, RC and all three
	// chunked modes must agree on it exactly. AtomicFrac/BranchFrac/
	// IOFrac are ignored; HotFrac+WarmFrac becomes the fraction of ops
	// that hit the locked counters.
	RaceFree bool

	// Device schedule (GenDevices): interrupt/DMA inter-arrival periods
	// in cycles over Horizon cycles; 0 disables that source.
	IntrPeriod uint64
	DMAPeriod  uint64
	Horizon    uint64
}

// DefaultGen returns the racy-mode generator configuration used by the
// in-tree fuzz tests: the op mix of the original ad-hoc generator
// (40% atomics, 20% value-dependent branches, the rest plain loads and
// stores; 60% of addresses shared), no device traffic.
func DefaultGen() GenConfig {
	return GenConfig{
		Iters:      60,
		MinOps:     4,
		MaxOps:     12,
		HotFrac:    0.3,
		WarmFrac:   0.3,
		AtomicFrac: 0.4,
		BranchFrac: 0.2,
		FenceFrac:  0.1,
		MaxWork:    30,
	}
}

// SystemGen returns a racy configuration with I/O reads in the op mix
// and interrupt+DMA schedules for GenDevices.
func SystemGen() GenConfig {
	g := DefaultGen()
	g.IOFrac = 0.05
	g.IntrPeriod = 20_000
	g.DMAPeriod = 30_000
	g.Horizon = 2_000_000
	return g
}

// RaceFreeGen returns a data-race-free configuration for cross-model
// differential checks.
func RaceFreeGen() GenConfig {
	g := DefaultGen()
	g.RaceFree = true
	return g
}

// GenProgram generates one terminating program from the seed. Register
// conventions: r15 = proc ID and r14 = proc count (loader), r10 = 0
// (lock macros); the generator keeps its state in r0-r9 and r11-r13.
func GenProgram(seed uint64, cfg GenConfig) *isa.Program {
	if cfg.RaceFree {
		return genRaceFree(seed, cfg)
	}
	s := rng.New(seed)
	a := isa.NewAsm()
	a.LockInit()
	if cfg.IntrPeriod > 0 {
		a.SetIntrVec("ih")
	}
	a.Muli(9, 15, privSpan)
	a.Addi(9, 9, privBase)
	a.Ldi(4, 0)
	a.Ldi(5, int64(cfg.Iters))
	a.Label("loop")
	nops := cfg.MinOps + s.Intn(cfg.MaxOps-cfg.MinOps+1)
	for i := 0; i < nops; i++ {
		genAddr(a, s, cfg)
		r := s.Float64()
		switch {
		case r < cfg.AtomicFrac:
			a.Ldi(2, int64(s.Intn(100)))
			if s.Bool(0.5) {
				a.Swap(6, 0, 2)
			} else {
				a.Fadd(6, 0, 2)
			}
		case r < cfg.AtomicFrac+cfg.BranchFrac:
			a.Ld(6, 0, 0)
			// Value-dependent branch: diverging values change the path.
			skip := fmt.Sprintf("sk_%d_%d", seed, a.Here())
			a.Andi(6, 6, 1)
			a.Bne(6, 10, skip)
			a.Addi(7, 7, 13)
			a.Label(skip)
		case r < cfg.AtomicFrac+cfg.BranchFrac+cfg.IOFrac:
			a.Iord(6, int64(s.Intn(4)))
			a.Add(7, 7, 6)
		case s.Bool(0.5):
			a.Ld(6, 0, 0)
			a.Add(7, 7, 6)
		default:
			a.St(0, 0, 7)
		}
		if s.Bool(cfg.FenceFrac) {
			a.Fence()
		}
		a.Work(s.Intn(cfg.MaxWork), 3)
	}
	a.Addi(4, 4, 1)
	a.Blt(4, 5, "loop")
	a.Halt()
	if cfg.IntrPeriod > 0 {
		// Handler: bump a per-proc private counter so deliveries leave an
		// architectural trace without racing the main loop.
		a.Label("ih")
		a.Ldi(11, privBase-0x100)
		a.Add(11, 11, 15)
		a.Ld(12, 11, 0)
		a.Addi(12, 12, 1)
		a.St(11, 0, 12)
		a.Iret()
	}
	return a.Assemble()
}

// genAddr emits code leaving the operation's address in r0.
func genAddr(a *isa.Asm, s *rng.Source, cfg GenConfig) {
	region := s.Float64()
	switch {
	case region < cfg.HotFrac:
		a.Ldi(0, int64(hotBase+s.Intn(hotWords)))
	case region < cfg.HotFrac+cfg.WarmFrac:
		a.Ldi(0, int64(warmBase+s.Intn(warmWords)))
	default:
		a.Andi(0, 4, 255)
		a.Add(0, 0, 9)
	}
}

// genRaceFree emits a DRF program: every shared access is a
// lock-protected counter increment by a generator constant, and no
// value read from mutable shared memory flows anywhere — so the final
// memory state (counter sums, private regions, released locks) is the
// same under every legal interleaving and every memory model.
func genRaceFree(seed uint64, cfg GenConfig) *isa.Program {
	const nctrs = 4
	s := rng.New(seed)
	a := isa.NewAsm()
	a.LockInit()
	a.Muli(9, 15, privSpan)
	a.Addi(9, 9, privBase)
	a.Ldi(4, 0)
	a.Ldi(5, int64(cfg.Iters))
	a.Label("loop")
	nops := cfg.MinOps + s.Intn(cfg.MaxOps-cfg.MinOps+1)
	for i := 0; i < nops; i++ {
		if s.Float64() < cfg.HotFrac+cfg.WarmFrac {
			// Locked shared counter += constant.
			k := s.Intn(nctrs)
			a.Ldi(11, int64(lockBase+k*lockSpan))
			a.Lock(11, 12, fmt.Sprintf("g%d_%d", seed, a.Here()))
			a.Ldi(13, int64(ctrBase+k*lockSpan))
			a.Ld(6, 13, 0)
			a.Addi(6, 6, int64(1+s.Intn(9)))
			a.St(13, 0, 6)
			a.Unlock(11)
		} else {
			// Private traffic; branches depend only on private values.
			a.Andi(0, 4, 255)
			a.Add(0, 0, 9)
			switch s.Intn(3) {
			case 0:
				a.Ld(6, 0, 0)
				a.Add(7, 7, 6)
			case 1:
				a.St(0, 0, 7)
			default:
				a.Ld(6, 0, 0)
				skip := fmt.Sprintf("rf_%d_%d", seed, a.Here())
				a.Andi(6, 6, 1)
				a.Bne(6, 10, skip)
				a.Addi(7, 7, 13)
				a.Label(skip)
			}
		}
		if s.Bool(cfg.FenceFrac) {
			a.Fence()
		}
		a.Work(s.Intn(cfg.MaxWork), 3)
	}
	a.Addi(4, 4, 1)
	a.Blt(4, 5, "loop")
	// Publish the private accumulator to the processor's own slot.
	a.St(9, 0, 7)
	a.Halt()
	return a.Assemble()
}

// GenPrograms generates one program per processor, streams split from
// the run seed.
func GenPrograms(seed uint64, nprocs int, cfg GenConfig) []*isa.Program {
	progs := make([]*isa.Program, nprocs)
	for p := range progs {
		progs[p] = GenProgram(seed*31+uint64(p), cfg)
	}
	return progs
}

// GenDevices builds the interrupt/DMA schedule for the configuration
// (nil when the configuration requests no device traffic). Each run
// needs a fresh Devices value; call once per execution.
func GenDevices(seed uint64, nprocs int, cfg GenConfig) *device.Devices {
	if cfg.IntrPeriod == 0 && cfg.DMAPeriod == 0 && cfg.IOFrac == 0 {
		return nil
	}
	d := device.New(seed ^ 0xD1FFC0DE)
	if cfg.IntrPeriod > 0 {
		d.GenerateInterrupts(rng.New(seed+1), nprocs, cfg.IntrPeriod, cfg.Horizon, 0.3)
	}
	if cfg.DMAPeriod > 0 {
		d.GenerateDMA(rng.New(seed+2), dmaBase, 4, 8, cfg.DMAPeriod, cfg.Horizon)
	}
	return d
}

// Package workload provides the benchmark programs the evaluation runs:
// synthetic kernels reproducing the sharing patterns of the paper's
// SPLASH-2 applications, plus two commercial-like full-system workloads
// (sjbb2k, sweb2005) that exercise interrupts, uncached I/O and DMA.
//
// The kernels are real programs in the simulator's ISA — loads observe
// values stores produce, locks arbitrate, barriers synchronize — not
// address traces. Each is tuned to the qualitative character the paper
// reports for its namesake: radix's contended histogram, raytrace's
// single hot task-queue lock (squash concentration), lu's owner-computes
// blocks with barriers, water's mostly-private bodies with reduction
// locks, and so on. See DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"
	"sort"

	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/rng"
)

// Params configures workload generation.
type Params struct {
	NProcs int
	// Scale is the approximate dynamic instruction count per processor.
	Scale int
	// Seed drives layout and access randomization (and device schedules
	// for the commercial workloads).
	Seed uint64
}

// Workload is a generated benchmark instance.
type Workload struct {
	Name  string
	Progs []*isa.Program
	// Devs is non-nil for the full-system workloads.
	Devs *device.Devices
	// Image is the initial memory contents (the system checkpoint state)
	// in canonical form: nonzero words at strictly increasing addresses.
	// Every run of the workload starts from it and none modifies it.
	Image mem.Image
}

// InitMem returns a memory holding the workload's initial image. The
// memory comes from mem's free list (mem.Get); a caller done with it may
// hand it back with mem.Put. It is safe for concurrent use.
func (w *Workload) InitMem() *mem.Memory {
	m := mem.Get()
	m.Restore(w.Image)
	return m
}

// Shared address map (word addresses). Layout matters to the Bulk
// signatures: synchronization globals (barrier generation and flags,
// locks, the task-queue head) each live on their own cache line at a
// large ODD line stride, so every global projects to a distinct bit in
// every signature bank — a chunk touching one lock never aliases with a
// chunk touching another global or a dense array region. Private regions
// are spaced ≥ 2^18 words apart for the same reason.
const (
	gBase   = 0x400000             // globals base (word address)
	gStride = 1027 * isa.LineWords // one global per line, odd line stride

	addrBarrier  = gBase              // generation word; flags follow per-proc
	addrTaskHead = gBase + 37*gStride // shared task-queue head index
	addrLocks    = gBase + 44*gStride // 16 spread locks
	addrHist     = gBase + 70*gStride // shared histogram / reduction cells
	addrShared   = 0x10000
	addrShared2  = 0x80000
	addrDMARing  = 0x900
	privBase     = 0x1000000
	privStride   = 0x80000
)

func lockAddr(i int) int64 { return addrLocks + int64(i%16)*gStride }
func histAddr(b int) int64 { return addrHist + int64(b) }

// barrierFlag returns the arrival-flag word of processor p.
func barrierFlagStride() int64 { return gStride }

type generator func(Params) *Workload

var registry = map[string]generator{
	"barnes":    genBarnes,
	"cholesky":  genCholesky,
	"fft":       genFFT,
	"fmm":       genFMM,
	"lu":        genLU,
	"ocean":     genOcean,
	"radiosity": genRadiosity,
	"radix":     genRadix,
	"raytrace":  genRaytrace,
	"water-ns":  genWaterNS,
	"water-sp":  genWaterSP,
	"sjbb2k":    genSJBB,
	"sweb2005":  genSWeb,
	// syskernel is the pinned full-system smoke kernel (see syskernel.go).
	// Deliberately absent from Names(): it is a fixture/serving workload,
	// not part of the paper's benchmark suite, so the experiment drivers
	// never sweep it.
	"syskernel": genSysKernel,
}

// SplashNames returns the SPLASH-2-like kernel names in the paper's
// figure order.
func SplashNames() []string {
	return []string{
		"barnes", "cholesky", "fft", "fmm", "lu", "ocean",
		"radiosity", "radix", "raytrace", "water-ns", "water-sp",
	}
}

// CommercialNames returns the full-system workloads.
func CommercialNames() []string { return []string{"sjbb2k", "sweb2005"} }

// Names returns every workload name, SPLASH-2 first.
func Names() []string {
	return append(SplashNames(), CommercialNames()...)
}

// All returns every registered name sorted (for validation).
func All() []string {
	var ns []string
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Get generates the named workload. It panics on unknown names —
// callers pass compile-time constants or names from Names().
func Get(name string, p Params) *Workload {
	g, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown workload %q", name))
	}
	if p.NProcs <= 0 || p.Scale <= 0 {
		panic(fmt.Sprintf("workload: bad params %+v", p))
	}
	return g(p)
}

// kb (kernel builder) wraps the assembler with the conventions every
// kernel shares: r15 = proc ID, r14 = processor count, r10 = zero
// (LockInit), r9 = private base address.
type kb struct {
	*isa.Asm
	p      Params
	rng    *rng.Source
	labels int
}

func newKB(p Params, salt uint64) *kb {
	k := &kb{Asm: isa.NewAsm(), p: p, rng: rng.New(p.Seed ^ salt)}
	k.LockInit()
	// r9 <- private base for this processor: privBase + proc*privStride.
	k.Muli(9, 15, privStride)
	k.Addi(9, 9, privBase)
	// r13 <- per-processor skew. Real applications desynchronize
	// naturally (data-dependent work); identical synthetic kernels would
	// otherwise hit every lock and queue in lockstep bursts, a resonance
	// that grossly exaggerates conflict rates. Kernels fold r13 into
	// periodic conditions and initial stagger loops. (LU repurposes r13
	// as its rotating owner and opts out.)
	k.Muli(13, 15, 1777)
	return k
}

// stagger emits an initial desynchronization loop proportional to the
// processor ID (~0–12k instructions for 8 processors), using scratch ra.
func (k *kb) stagger(ra int) {
	l := k.lbl("skew")
	k.Ldi(ra, 0)
	k.Label(l)
	k.Addi(ra, ra, 3)
	k.Blt(ra, 13, l)
}

// variableWork emits a private-computation loop whose length is
// base plus a hash of the value in rid (task-length variance, ~0–8k
// instructions), clobbering ra and rb.
func (k *kb) variableWork(base, rid, ra, rb int) {
	k.Muli(ra, rid, 2654435761)
	k.Andi(ra, ra, 8191)
	k.Addi(ra, ra, int64(base))
	l := k.lbl("vw")
	k.Ldi(rb, 0)
	k.Label(l)
	k.Addi(rb, rb, 3)
	k.Blt(rb, ra, l)
}

// lbl returns a fresh unique label suffix.
func (k *kb) lbl(prefix string) string {
	k.labels++
	return fmt.Sprintf("%s%d", prefix, k.labels)
}

// barrier emits a flag-based barrier over all processors using r0..r3
// and r8 as scratch (callers must not hold live values there).
//
// Layout at addrBarrier: word 0 is the generation; the arrival flag of
// processor p lives on its own cache line at addrBarrier + (1+p) lines.
// Each arriver writes only its own flag line; processor 0 gathers the
// flags and bumps the generation; everyone else spins on the generation.
// Under chunked execution this matters enormously compared to a central
// fetch-add counter: arrivals touch disjoint lines, so arriving chunks
// never squash each other — each processor is squashed at most once per
// barrier (by the generation bump, or for processor 0 by flag arrivals).
// SPLASH-2's own barrier implementations are similarly
// contention-conscious.
func (k *kb) barrier() {
	gen := int64(addrBarrier)
	k.Ldi(0, gen)
	k.Ld(3, 0, 0)   // r3 = current generation
	k.Addi(3, 3, 1) // r3 = target generation
	// Publish my arrival: flag[p] = target.
	k.Addi(1, 15, 1)
	k.Muli(1, 1, barrierFlagStride())
	k.Addi(1, 1, gen)
	k.St(1, 0, 3)
	done := k.lbl("bardone")
	notZero := k.lbl("barnz")
	k.Bne(15, 10, notZero)
	// Processor 0: gather all flags, then bump the generation.
	k.Ldi(2, 1) // q
	gather := k.lbl("bargather")
	k.Label(gather)
	k.Addi(1, 2, 1)
	k.Muli(1, 1, barrierFlagStride())
	k.Addi(1, 1, gen)
	wait := k.lbl("barwait")
	k.Label(wait)
	k.Ld(8, 1, 0)
	k.Blt(8, 3, wait)
	k.Addi(2, 2, 1)
	k.Blt(2, 14, gather)
	k.Ldi(0, gen)
	k.St(0, 0, 3) // generation = target
	k.Jmp(done)
	k.Label(notZero)
	// Everyone else: spin on the generation.
	k.Ldi(0, gen)
	spin := k.lbl("barspin")
	k.Label(spin)
	k.Ld(8, 0, 0)
	k.Blt(8, 3, spin)
	k.Label(done)
}

// workLoop emits a compact private-computation loop of roughly n dynamic
// instructions using the two scratch registers (3 instructions per
// iteration). Large stretches of "computation" use this instead of
// unrolled Work so program sizes stay modest.
func (k *kb) workLoop(n, ra, rb int) {
	if n < 9 {
		k.Work(n, ra)
		return
	}
	l := k.lbl("wk")
	k.Ldi(ra, 0)
	k.Ldi(rb, int64(n/3))
	k.Label(l)
	k.Addi(ra, ra, 3)
	k.Blt(ra, rb, l)
}

// iters computes a loop count so the kernel body (approximately
// bodyInsts dynamic instructions per iteration) totals Scale
// instructions.
func (k *kb) iters(bodyInsts int) int {
	n := k.p.Scale / bodyInsts
	if n < 4 {
		n = 4
	}
	return n
}

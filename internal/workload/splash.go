package workload

import (
	"slices"

	"delorean/internal/isa"
	"delorean/internal/mem"
)

// Synchronization density is the property these kernels must get right:
// in the real SPLASH-2 applications, critical sections and barriers are
// separated by thousands to tens of thousands of instructions, so most
// 1000–3000-instruction chunks commit without conflicts. Kernels are
// therefore structured so locks/barriers recur every ~1.5k–15k dynamic
// instructions (per their namesake's character), not per iteration.

// replicate builds one program (keyed off r15/r14 at run time) and uses
// it for every processor.
func replicate(p Params, prog *isa.Program) []*isa.Program {
	ps := make([]*isa.Program, p.NProcs)
	for i := range ps {
		ps[i] = prog
	}
	return ps
}

// fill appends the words [base, base+n) to img, holding deterministic
// nonzero data (scene geometry, matrices, ...) drawn from seed. Callers
// append regions in address order, so the image stays canonical.
func fill(img mem.Image, base uint32, seed uint64, n int) mem.Image {
	img = slices.Grow(img, n)
	v := seed | 1
	for i := 0; i < n; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		img = append(img, mem.Word{Addr: base + uint32(i), Val: v | 1})
	}
	return img
}

// finalReduction emits one guaranteed lock-protected global accumulation
// (so even tiny test-scale runs exercise cross-processor sharing).
func (k *kb) finalReduction(acc int) {
	k.Ldi(1, lockAddr(5))
	k.Lock(1, 3, k.lbl("lkf"))
	k.Ldi(2, histAddr(8))
	k.Ld(3, 2, 0)
	k.Add(3, 3, acc)
	k.St(2, 0, 3)
	k.Unlock(1)
}

// genBarnes models the Barnes-Hut force computation: per body, walks of
// a shared tree (read-only node visits) and private force computation;
// a lock-protected tree-node update only every 32 bodies — moderate,
// spread-out sharing.
func genBarnes(p Params) *Workload {
	const nodes = 256
	k := newKB(p, 0xBA53)
	body := 100
	k.Ldi(4, 0)
	k.Ldi(5, int64(k.iters(body)))
	k.Label("loop")
	// Visit three pseudo-random tree nodes (read-only).
	k.Mov(0, 4)
	k.Add(0, 0, 15)
	k.Muli(0, 0, 2654435761)
	k.Andi(0, 0, nodes-1)
	k.Muli(0, 0, isa.LineWords)
	k.Addi(0, 0, addrShared)
	k.Ld(6, 0, 0)
	k.Ld(7, 0, 1)
	k.Muli(1, 4, 40503)
	k.Andi(1, 1, nodes-1)
	k.Muli(1, 1, isa.LineWords)
	k.Addi(1, 1, addrShared)
	k.Ld(2, 1, 0)
	k.Add(6, 6, 2)
	// Private force computation.
	k.Work(80, 3)
	k.St(9, 0, 6)
	// Rare lock-protected node update (every 256 bodies, ~25k insts),
	// skewed per processor so updates don't burst in lockstep.
	skip := k.lbl("skip")
	k.Add(2, 4, 13)
	k.Andi(2, 2, 255)
	k.Bne(2, 10, skip)
	k.Andi(2, 4, 15)
	k.Muli(2, 2, gStride)
	k.Addi(2, 2, addrLocks)
	k.Lock(2, 3, k.lbl("lk"))
	k.Ld(3, 0, 2)
	k.Add(3, 3, 6)
	k.St(0, 2, 3)
	k.Unlock(2)
	k.Label(skip)
	k.Addi(4, 4, 1)
	k.Blt(4, 5, "loop")
	k.finalReduction(6)
	k.Halt()
	return &Workload{
		Name:  "barnes",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0xBA53, nodes*isa.LineWords),
	}
}

// genFMM models the fast multipole method: heavier private computation
// than barnes and rarer locking (every 64 interactions).
func genFMM(p Params) *Workload {
	const cells = 128
	k := newKB(p, 0xF33)
	body := 180
	k.Ldi(4, 0)
	k.Ldi(5, int64(k.iters(body)))
	k.Label("loop")
	k.Mov(0, 4)
	k.Muli(0, 0, 2246822519)
	k.Andi(0, 0, cells-1)
	k.Muli(0, 0, isa.LineWords)
	k.Addi(0, 0, addrShared)
	k.Ld(6, 0, 0)
	k.Ld(7, 0, 2)
	k.Work(160, 3)
	k.Add(6, 6, 3)
	k.Andi(1, 4, 255)
	k.Add(1, 1, 9)
	k.St(1, 0, 6)
	skip := k.lbl("skip")
	k.Add(2, 4, 13)
	k.Andi(2, 2, 255)
	k.Bne(2, 10, skip)
	k.Ldi(2, lockAddr(3))
	k.Lock(2, 3, k.lbl("lk"))
	k.Ld(3, 0, 1)
	k.Add(3, 3, 6)
	k.St(0, 1, 3)
	k.Unlock(2)
	k.Label(skip)
	k.Addi(4, 4, 1)
	k.Blt(4, 5, "loop")
	k.finalReduction(6)
	k.Halt()
	return &Workload{
		Name:  "fmm",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0xF33, cells*isa.LineWords),
	}
}

// genFFT models the six-step FFT: long private butterfly phases
// separated by all-to-all transposes through a shared matrix, with two
// barriers per phase — coarse-grained, phase-structured sharing.
func genFFT(p Params) *Workload {
	const chunk = 1024
	const phases = 6
	k := newKB(p, 0xFF7)
	k.Muli(6, 15, chunk)
	k.Addi(6, 6, addrShared)
	k.Ldi(7, 0)
	k.Ldi(5, phases)
	k.Label("phase")
	// Local butterflies (the bulk of each phase).
	k.Ldi(4, 0)
	k.Ldi(0, int64(k.p.Scale/(phases*14)))
	lb := k.lbl("bfly")
	k.Label(lb)
	k.Andi(1, 4, chunk-1)
	k.Add(1, 1, 9)
	k.Ld(2, 1, 0)
	k.Muli(2, 2, 3)
	k.Addi(2, 2, 7)
	k.St(1, 0, 2)
	k.Work(8, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, lb)
	// Publish my segment to the shared matrix.
	k.Ldi(4, 0)
	k.Ldi(0, chunk)
	pub := k.lbl("pub")
	k.Label(pub)
	k.Add(1, 6, 4)
	k.Add(2, 9, 4)
	k.Ld(3, 2, 0)
	k.St(1, 0, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, pub)
	k.barrier()
	// Transpose-read: strided gather across everyone's segments.
	k.Ldi(4, 0)
	k.Ldi(0, chunk)
	tr := k.lbl("tr")
	k.Label(tr)
	k.Mov(1, 4)
	k.Mul(1, 1, 14)
	k.Add(1, 1, 15)
	k.Add(1, 1, 7)
	k.Muli(2, 14, chunk)
	k.mod2(1, 2)
	k.Addi(1, 1, addrShared)
	k.Ld(3, 1, 0)
	k.Add(2, 9, 4)
	k.St(2, 0, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, tr)
	k.barrier()
	k.Addi(7, 7, 1)
	k.Blt(7, 5, "phase")
	k.Halt()
	return &Workload{
		Name:  "fft",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0xFF7, p.NProcs*chunk),
	}
}

// mod2 emits r[a] = r[a] mod r[b] via conditional subtraction (valid for
// a < 2b, which holds at its call sites).
func (k *kb) mod2(a, b int) {
	done := k.lbl("mod")
	k.Blt(a, b, done)
	k.Sub(a, a, b)
	k.Label(done)
}

// genLU models blocked dense LU: per step the owner factorizes a large
// pivot block, a barrier publishes it, and everyone updates private
// blocks against it — one-to-many read sharing separated by thousands of
// private instructions.
func genLU(p Params) *Workload {
	const blockWords = 256
	k := newKB(p, 0x111)
	stepCost := blockWords*7 + 10100
	steps := k.iters(stepCost)
	k.Ldi(7, 0)
	k.Ldi(13, 0) // rotating owner (SPLASH kernels take no interrupts)
	k.Ldi(5, int64(steps))
	k.Label("step")
	notOwner := k.lbl("notown")
	k.Bne(13, 15, notOwner)
	k.Andi(1, 7, 7)
	k.Muli(1, 1, blockWords)
	k.Addi(1, 1, addrShared2)
	k.Ldi(4, 0)
	k.Ldi(2, blockWords)
	fw := k.lbl("fw")
	k.Label(fw)
	k.Add(3, 1, 4)
	k.Ld(6, 3, 0)
	k.Muli(6, 6, 5)
	k.Addi(6, 6, 13)
	k.St(3, 0, 6)
	k.Addi(4, 4, 2)
	k.Blt(4, 2, fw)
	k.Label(notOwner)
	k.barrier()
	// Everyone reads the pivot block and updates private state.
	k.Andi(1, 7, 7)
	k.Muli(1, 1, blockWords)
	k.Addi(1, 1, addrShared2)
	k.Ldi(4, 0)
	k.Ldi(2, blockWords)
	up := k.lbl("up")
	k.Label(up)
	k.Add(3, 1, 4)
	k.Ld(6, 3, 0)
	k.Andi(0, 4, 255)
	k.Add(0, 9, 0)
	k.Ld(8, 0, 0)
	k.Add(8, 8, 6)
	k.St(0, 0, 8)
	k.Addi(4, 4, 1)
	k.Blt(4, 2, up)
	// Trailing-submatrix update: the bulk of each step.
	k.workLoop(10000, 3, 0)
	// Advance the rotating owner (no second barrier: the next pivot is a
	// different block, and laggards read the previous one).
	k.Addi(13, 13, 1)
	k.mod2(13, 14)
	k.Addi(7, 7, 1)
	k.Blt(7, 5, "step")
	k.Halt()
	img := fill(nil, addrShared, p.Seed^0x111, 64)
	img = fill(img, addrShared2, p.Seed^0x222, 8*blockWords)
	return &Workload{Name: "lu", Progs: replicate(p, k.Assemble()), Image: img}
}

// genOcean models the ocean grid solver: each processor sweeps its own
// rows reading neighbor boundary cells, one barrier per multi-thousand-
// instruction sweep.
func genOcean(p Params) *Workload {
	const rowWords = 256
	const rowsPerProc = 2
	k := newKB(p, 0x0CEA)
	sweepCost := rowsPerProc*rowWords*10 + 8100
	sweeps := k.iters(sweepCost)
	k.Muli(6, 15, rowsPerProc*rowWords)
	k.Addi(6, 6, addrShared)
	k.Ldi(7, 0)
	k.Ldi(5, int64(sweeps))
	k.Label("sweep")
	k.Ldi(4, 0)
	k.Ldi(0, rowsPerProc*rowWords)
	cell := k.lbl("cell")
	k.Label(cell)
	k.Add(1, 4, 6)
	k.Ld(2, 1, 0)
	k.Addi(3, 1, -rowWords)
	clamp := k.lbl("clamp")
	k.Ldi(8, addrShared)
	k.Bge(3, 8, clamp)
	k.Mov(3, 1)
	k.Label(clamp)
	k.Ld(8, 3, 0)
	k.Add(2, 2, 8)
	k.Muli(2, 2, 3)
	k.St(1, 0, 2)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, cell)
	// Column pass over the private grid copy (every 4th sweep): writes
	// strided by a full row (a power of two) map onto few L1 sets — the
	// access pattern behind the RARE speculative-overflow chunk
	// truncations the CS log exists for (paper §4.2.3).
	skipCol := k.lbl("skipcol")
	k.Andi(4, 7, 3)
	k.Bne(4, 10, skipCol)
	k.Ldi(4, 0)
	k.Ldi(0, 24)
	col := k.lbl("col")
	k.Label(col)
	k.Muli(1, 4, rowWords)
	k.Andi(1, 1, 0x3fff)
	k.Add(1, 1, 9)
	k.St(1, 0, 4)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, col)
	k.Label(skipCol)
	// Relaxation work between boundary exchanges.
	k.workLoop(7800, 3, 8)
	k.barrier()
	k.Addi(7, 7, 1)
	k.Blt(7, 5, "sweep")
	k.Halt()
	return &Workload{
		Name:  "ocean",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0x0CEA, p.NProcs*rowsPerProc*rowWords),
	}
}

// genCholesky models sparse Cholesky: a lock-free (fetch-add) task queue
// hands out multi-thousand-instruction column tasks; each task reads one
// shared column and updates another under a per-column lock.
func genCholesky(p Params) *Workload {
	const cols = 32
	const colWords = 64
	k := newKB(p, 0xC40)
	taskCost := colWords*6 + 40100
	totalTasks := k.iters(taskCost) * p.NProcs
	k.Ldi(5, int64(totalTasks))
	k.stagger(0)
	k.Label("loop")
	k.Ldi(0, addrTaskHead)
	k.Ldi(1, 1)
	k.Fadd(6, 0, 1)
	k.Bge(6, 5, "done")
	// Read the source column.
	k.Andi(0, 6, cols-1)
	k.Muli(0, 0, colWords)
	k.Addi(0, 0, addrShared)
	k.Ldi(4, 0)
	k.Ldi(2, colWords)
	rd := k.lbl("rd")
	k.Label(rd)
	k.Add(1, 0, 4)
	k.Ld(3, 1, 0)
	k.Add(7, 7, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 2, rd)
	// The actual factorization work (length varies per task).
	k.variableWork(36000, 6, 3, 1)
	// Update the destination column under its lock.
	k.Muli(0, 6, 7)
	k.Addi(0, 0, 3)
	k.Andi(0, 0, cols-1)
	k.Mov(8, 0)
	k.Andi(1, 8, 15)
	k.Muli(1, 1, gStride)
	k.Addi(1, 1, addrLocks)
	k.Lock(1, 3, k.lbl("lk"))
	k.Muli(0, 8, colWords)
	k.Addi(0, 0, addrShared)
	k.Ld(3, 0, 0)
	k.Add(3, 3, 7)
	k.St(0, 0, 3)
	k.Unlock(1)
	k.Jmp("loop")
	k.Label("done")
	k.Halt()
	return &Workload{
		Name:  "cholesky",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0xC40, cols*colWords),
	}
}

// genRadiosity models radiosity: finer tasks than cholesky (hotter queue)
// and scattered patch updates under per-patch locks.
func genRadiosity(p Params) *Workload {
	const patches = 64
	k := newKB(p, 0x3AD)
	taskCost := 25100
	totalTasks := k.iters(taskCost) * p.NProcs
	k.Ldi(5, int64(totalTasks))
	k.stagger(0)
	k.Label("loop")
	k.Ldi(0, addrTaskHead)
	k.Ldi(1, 1)
	k.Fadd(6, 0, 1)
	k.Bge(6, 5, "done")
	k.variableWork(21000, 6, 3, 1)
	k.Muli(0, 6, 2654435761)
	k.Andi(0, 0, patches-1)
	k.Andi(1, 0, 15)
	k.Muli(1, 1, gStride)
	k.Addi(1, 1, addrLocks)
	k.Lock(1, 3, k.lbl("lk"))
	k.Muli(2, 0, isa.LineWords)
	k.Addi(2, 2, addrShared)
	k.Ld(3, 2, 0)
	k.Addi(3, 3, 7)
	k.St(2, 0, 3)
	k.Unlock(1)
	k.Jmp("loop")
	k.Label("done")
	k.Halt()
	return &Workload{
		Name:  "radiosity",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0x3AD, patches*isa.LineWords),
	}
}

// genRadix models radix sort faithfully: each round builds a PRIVATE
// histogram (long, conflict-free), merges it into the global histogram
// in a short fetch-add burst, and scatters keys into a large shared
// array — bursty sharing around barriers, as the paper's radix shows.
func genRadix(p Params) *Workload {
	const buckets = 64
	const keysPerRound = 4096
	const scatterWords = 32768
	k := newKB(p, 0x3AD1C)
	roundCost := keysPerRound*16 + buckets*8 + 120
	rounds := k.iters(roundCost)
	k.Ldi(7, 0)
	k.Ldi(5, int64(rounds))
	k.Label("round")
	// Private histogram.
	k.Ldi(4, 0)
	k.Ldi(0, keysPerRound)
	h := k.lbl("hist")
	k.Label(h)
	k.Mov(1, 4)
	k.Add(1, 1, 7)
	k.Mul(1, 1, 15)
	k.Muli(1, 1, 2654435761)
	k.Andi(2, 1, buckets-1)
	k.Add(2, 2, 9) // private bucket
	k.Ld(3, 2, 0)
	k.Addi(3, 3, 1)
	k.St(2, 0, 3)
	k.Work(4, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, h)
	// Short global merge burst.
	k.Ldi(4, 0)
	k.Ldi(0, buckets)
	mg := k.lbl("merge")
	k.Label(mg)
	k.Add(1, 9, 4)
	k.Ld(2, 1, 0)
	k.St(1, 0, 10) // clear private bucket
	k.Addi(3, 4, addrHist)
	k.Fadd(2, 3, 2)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, mg)
	k.barrier()
	// Scatter into the shared array. After the (modelled) prefix sums,
	// each processor's keys land in its own contiguous destination range,
	// so scatter writes are disjoint across processors — as in the real
	// algorithm.
	k.Ldi(4, 0)
	k.Ldi(0, keysPerRound)
	k.Muli(6, 15, keysPerRound)
	k.Addi(6, 6, addrShared)
	s := k.lbl("scat")
	k.Label(s)
	k.Mov(1, 4)
	k.Add(1, 1, 7)
	k.Muli(1, 1, 40503)
	k.Add(2, 6, 4)
	k.St(2, 0, 1)
	k.Work(4, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 0, s)
	k.barrier()
	k.Addi(7, 7, 1)
	k.Blt(7, 5, "round")
	k.Halt()
	return &Workload{
		Name:  "radix",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0x3AD1C, scatterWords),
	}
}

// genRaytrace models raytrace's single hot task-queue lock: every ray
// acquires the same lock, and rays are long enough that the lock recurs
// roughly once per chunk — contention (and squashing) concentrates
// there, the behaviour behind the paper's Table 6 discussion.
func genRaytrace(p Params) *Workload {
	const scene = 512
	k := newKB(p, 0x3A7)
	rayCost := 30100
	totalRays := k.iters(rayCost) * p.NProcs
	k.Ldi(5, int64(totalRays))
	k.stagger(0)
	k.Label("loop")
	k.Ldi(1, lockAddr(0))
	k.Lock(1, 3, k.lbl("lk"))
	k.Ldi(0, addrTaskHead)
	k.Ld(6, 0, 0)
	k.Addi(2, 6, 1)
	k.St(0, 0, 2)
	k.Unlock(1)
	k.Bge(6, 5, "done")
	// Trace: read-only scene lookups + heavy private computation.
	k.Muli(0, 6, 2246822519)
	k.Andi(0, 0, scene-1)
	k.Addi(0, 0, addrShared)
	k.Ld(2, 0, 0)
	k.Muli(0, 6, 2654435761)
	k.Andi(0, 0, scene-1)
	k.Addi(0, 0, addrShared)
	k.Ld(3, 0, 0)
	k.Add(2, 2, 3)
	k.variableWork(26000, 6, 3, 0)
	k.Andi(1, 6, 511)
	k.Add(1, 1, 9)
	k.St(1, 0, 2)
	k.Jmp("loop")
	k.Label("done")
	k.Halt()
	return &Workload{
		Name:  "raytrace",
		Progs: replicate(p, k.Assemble()),
		Image: fill(nil, addrShared, p.Seed^0x3A7, scene),
	}
}

// genWaterNS models water-nsquared: long private molecular computation
// with a lock-protected global accumulation every 32 molecules (~5k
// instructions).
func genWaterNS(p Params) *Workload {
	return genWater(p, "water-ns", 0x3A11, 127, 120)
}

// genWaterSP models water-spatial: the most private kernel — reductions
// every 64 molecules of ~230 instructions each (~15k instructions).
func genWaterSP(p Params) *Workload {
	return genWater(p, "water-sp", 0x3A12, 255, 220)
}

func genWater(p Params, name string, salt uint64, reduceMask int64, work int) *Workload {
	k := newKB(p, salt)
	body := work + 30
	k.Ldi(4, 0)
	k.Ldi(5, int64(k.iters(body)))
	k.Label("loop")
	k.Andi(0, 4, 255)
	k.Add(0, 0, 9)
	k.Ld(6, 0, 0)
	k.Work(work, 3)
	k.Addi(6, 6, 17)
	k.St(0, 0, 6)
	skip := k.lbl("skip")
	k.Add(1, 4, 13)
	k.Andi(1, 1, reduceMask)
	k.Bne(1, 10, skip)
	k.Ldi(1, lockAddr(5))
	k.Lock(1, 3, k.lbl("lk"))
	k.Ldi(2, histAddr(8))
	k.Ld(3, 2, 0)
	k.Add(3, 3, 6)
	k.St(2, 0, 3)
	k.Unlock(1)
	k.Label(skip)
	k.Addi(4, 4, 1)
	k.Blt(4, 5, "loop")
	k.finalReduction(6)
	k.Halt()
	return &Workload{Name: name, Progs: replicate(p, k.Assemble())}
}

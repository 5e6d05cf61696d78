package workload

import (
	"delorean/internal/device"
	"delorean/internal/isa"
)

// genSJBB models SPECjbb2000 with one warehouse per processor:
// transactions against a mostly-private warehouse region, a fraction of
// cross-warehouse transactions under per-warehouse locks, periodic
// uncached I/O, plus timer interrupts and DMA traffic from the device
// model. This workload exists to exercise the input logs (interrupt,
// I/O, DMA) alongside the memory-ordering log.
func genSJBB(p Params) *Workload {
	k := newKB(p, 0x5BB)
	k.SetIntrVec("ih")
	body := 250
	iters := k.iters(body)
	k.Ldi(4, 0)
	k.Ldi(5, int64(iters))
	k.Label("loop")
	// Order-entry transaction against my warehouse (private region):
	// read an object, update it, append to an order log.
	k.Mov(0, 4)
	k.Muli(0, 0, 2654435761)
	k.Andi(0, 0, 1023)
	k.Add(0, 0, 9)
	k.Ld(6, 0, 0)
	k.Addi(6, 6, 3)
	k.St(0, 0, 6)
	k.Andi(1, 4, 255)
	k.Addi(1, 1, 2048)
	k.Add(1, 1, 9)
	k.St(1, 0, 6)
	// Index update bursts: B-tree-like nodes at a power-of-two stride
	// land in the same L1 set; bursts occasionally exceed the ways and
	// force speculative-overflow chunk truncation (the CS log's reason
	// for existing). Five of every 256 transactions touch the index.
	skipIdx := k.lbl("skipidx")
	k.Ldi(0, 256)
	k.Blt(4, 0, skipIdx) // warm-up: no index bursts in the first 256 tx
	k.Andi(2, 4, 255)
	k.Ldi(0, 5)
	k.Bge(2, 0, skipIdx)
	k.Muli(1, 4, 1024)
	k.Andi(1, 1, 16383)
	k.Addi(1, 1, 4096)
	k.Add(1, 1, 9)
	k.St(1, 0, 6)
	k.Label(skipIdx)
	k.Work(192, 3)
	// Own-warehouse summary update (1 in 16): each warehouse's summary
	// cell is also touched by the neighbor's cross-warehouse transactions
	// below, so these cells are genuinely shared.
	skipOwn := k.lbl("skipown")
	k.Andi(2, 4, 15)
	k.Ldi(0, 8)
	k.Bne(2, 0, skipOwn)
	k.Andi(1, 15, 15)
	k.Muli(1, 1, gStride)
	k.Addi(1, 1, addrLocks)
	k.Lock(1, 3, k.lbl("lko"))
	k.Muli(2, 15, isa.LineWords)
	k.Addi(2, 2, addrShared)
	k.Ld(3, 2, 0)
	k.Add(3, 3, 6)
	k.St(2, 0, 3)
	k.Unlock(1)
	k.Label(skipOwn)
	// Cross-warehouse transaction: 1 in 64 touches the next processor's
	// warehouse summary cell under its lock (~16k instructions apart).
	skipX := k.lbl("skipx")
	k.Andi(2, 4, 63)
	k.Bne(2, 10, skipX)
	k.Addi(0, 15, 1)
	k.mod2(0, 14) // neighbor warehouse
	k.Andi(1, 0, 15)
	k.Muli(1, 1, gStride)
	k.Addi(1, 1, addrLocks)
	k.Lock(1, 3, k.lbl("lk"))
	k.Muli(2, 0, isa.LineWords)
	k.Addi(2, 2, addrShared)
	k.Ld(3, 2, 0)
	k.Add(3, 3, 6)
	k.St(2, 0, 3)
	k.Unlock(1)
	k.Label(skipX)
	// Periodic uncached I/O (transaction journal flush): 1 in 128.
	skipIO := k.lbl("skipio")
	k.Andi(2, 4, 127)
	k.Bne(2, 10, skipIO)
	k.Iowr(1, 6)
	k.Iord(3, 2)
	k.Andi(0, 3, 255)
	k.Addi(0, 0, 3072)
	k.Add(0, 0, 9)
	k.St(0, 0, 3)
	k.Label(skipIO)
	// Consume the DMA ring (incoming requests).
	k.Ldi(0, addrDMARing)
	k.Andi(1, 4, 31)
	k.Add(0, 0, 1)
	k.Ld(2, 0, 0)
	k.Add(7, 7, 2)
	k.Addi(4, 4, 1)
	k.Blt(4, 5, "loop")
	k.Halt()
	// Interrupt handler: timer tick — bump a private counter.
	k.Label("ih")
	k.Muli(7, 15, privStride)
	k.Addi(7, 7, privBase+4000)
	k.Ld(8, 7, 0)
	k.Addi(8, 8, 1)
	k.St(7, 0, 8)
	k.Iret()

	prog := k.Assemble()
	devs := device.New(p.Seed ^ 0x5BB)
	horizon := uint64(p.Scale) * 4
	devs.GenerateInterrupts(k.rng.Fork(), p.NProcs, uint64(p.Scale/3)+512, horizon, 0.2)
	devs.GenerateDMA(k.rng.Fork(), addrDMARing, 2, 16, uint64(p.Scale/2)+512, horizon)

	return &Workload{Name: "sjbb2k", Progs: replicate(p, prog), Devs: devs,
		Image: fill(nil, addrShared, p.Seed^0x5BB, 64*isa.LineWords)}
}

// genSWeb models SPECweb2005's e-commerce workload: request processing
// with socket I/O (uncached loads), a shared read-mostly object cache
// with occasional lock-protected inserts, file data arriving via DMA,
// and network interrupts.
func genSWeb(p Params) *Workload {
	const cacheSlots = 256
	k := newKB(p, 0x53B)
	k.SetIntrVec("ih")
	body := 330
	iters := k.iters(body)
	k.Ldi(4, 0)
	k.Ldi(5, int64(iters))
	k.Label("loop")
	// Accept a request: socket read every 32nd iteration (keep-alive
	// connections in between; ~10k instructions apart).
	skipIO := k.lbl("skipio")
	k.Andi(2, 4, 31)
	k.Bne(2, 10, skipIO)
	k.Iord(6, 0) // request descriptor from the NIC
	k.Label(skipIO)
	// Parse: private computation.
	k.Work(200, 3)
	// Object-cache lookup (read-mostly shared).
	k.Mov(0, 4)
	k.Add(0, 0, 6)
	k.Muli(0, 0, 2246822519)
	k.Andi(0, 0, cacheSlots-1)
	k.Muli(1, 0, isa.LineWords)
	k.Addi(1, 1, addrShared)
	k.Ld(2, 1, 0)
	// Miss path (1 in 64): insert under the cache lock.
	skipIns := k.lbl("skipins")
	k.Andi(3, 4, 63)
	k.Ldi(8, 7)
	k.Bne(3, 8, skipIns)
	k.Ldi(3, lockAddr(9))
	k.Lock(3, 8, k.lbl("lk"))
	k.Addi(2, 2, 1)
	k.St(1, 0, 2)
	k.Unlock(3)
	k.Label(skipIns)
	// Read file data from the DMA ring and build the response privately.
	k.Ldi(0, addrDMARing)
	k.Andi(1, 4, 31)
	k.Add(0, 0, 1)
	k.Ld(3, 0, 0)
	k.Add(2, 2, 3)
	k.Andi(1, 4, 511)
	k.Add(1, 1, 9)
	k.St(1, 0, 2)
	k.Work(80, 3)
	k.Addi(4, 4, 1)
	k.Blt(4, 5, "loop")
	k.Halt()
	// Interrupt handler: NIC event — record into a private ring.
	k.Label("ih")
	k.Muli(7, 15, privStride)
	k.Addi(7, 7, privBase+4096)
	k.Ld(8, 7, 0)
	k.Add(8, 8, 13) // fold in interrupt data
	k.St(7, 0, 8)
	k.Iret()

	prog := k.Assemble()
	devs := device.New(p.Seed ^ 0x53B)
	horizon := uint64(p.Scale) * 4
	devs.GenerateInterrupts(k.rng.Fork(), p.NProcs, uint64(p.Scale/4)+512, horizon, 0.3)
	devs.GenerateDMA(k.rng.Fork(), addrDMARing, 2, 16, uint64(p.Scale/3)+512, horizon)

	return &Workload{
		Name:  "sweb2005",
		Progs: replicate(p, prog),
		Devs:  devs,
		Image: fill(nil, addrShared, p.Seed^0x53B, cacheSlots*isa.LineWords),
	}
}

package sim

import (
	"fmt"

	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
)

// AccessEvent describes one globally-performed memory access, in the
// exact global order the machine performed it. The prior-work recorders
// (FDR, RTR, Strata) consume this stream to build their logs.
type AccessEvent struct {
	Proc  int
	Time  uint64
	Line  uint32
	Addr  uint32
	Read  bool
	Write bool
	// MemOp is the per-processor memory-operation index (Strata counts
	// these); Inst is the per-processor dynamic instruction count (FDR
	// logs these).
	MemOp uint64
	Inst  uint64
	// Value is the value loaded (old memory value) — Advanced RTR logs
	// it for loads that bypass pending stores under TSO.
	Value uint64
	// StoresPending marks a load issued while older stores were still
	// buffered (possible store→load reordering under TSO/RC).
	StoresPending bool
}

// Observer receives the machine's global access stream.
type Observer interface {
	OnAccess(AccessEvent)
}

// Stats summarizes one run of the classic machine.
type Stats struct {
	Cycles     uint64 // makespan: max core clock at completion
	Insts      uint64 // total retired instructions
	MemOps     uint64
	IOOps      uint64
	Interrupts uint64
	DMAs       uint64
	Converged  bool // false if MaxInsts was hit before all threads halted
	// Coherence traffic: dirty lines forwarded cache-to-cache, and
	// shared-to-exclusive upgrades through the directory.
	C2CTransfers uint64
	Upgrades     uint64
	PerProc      []ProcStats
}

// ProcStats is the per-core slice of Stats.
type ProcStats struct {
	Cycles      uint64
	Insts       uint64
	MemOps      uint64
	StallCycles uint64
}

// IPC returns system instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Machine is the classic (non-chunked) multiprocessor: SC or RC cores
// over the shared memory hierarchy, with devices. It executes programs to
// completion, applying stores to global memory at issue time in global
// time order, which makes the interleaving it produces (and the
// dependences the observers see) well-defined and deterministic.
type Machine struct {
	Cfg   Config
	Model Model
	Progs []*isa.Program
	Mem   *mem.Memory
	Devs  *device.Devices
	Obs   Observer

	cores []*classicCore
	ms    *MemSys // pooled; held only while Run executes
	stats Stats
}

type classicCore struct {
	ts      isa.ThreadState
	tm      *CoreTiming
	prog    *isa.Program
	memOps  uint64
	insts   uint64
	nextIRQ int // index into Devs.Interrupts filtered by proc
}

// NewMachine builds a classic machine. progs must have Cfg.NProcs
// entries; devs may be nil.
func NewMachine(cfg Config, model Model, progs []*isa.Program, memory *mem.Memory, devs *device.Devices) *Machine {
	if len(progs) != cfg.NProcs {
		panic(fmt.Sprintf("sim: %d programs for %d processors", len(progs), cfg.NProcs))
	}
	if devs == nil {
		devs = device.New(0)
	}
	m := &Machine{Cfg: cfg, Model: model, Progs: progs, Mem: memory, Devs: devs}
	for p := 0; p < cfg.NProcs; p++ {
		cc := &classicCore{tm: NewCoreTiming(&m.Cfg), prog: progs[p]}
		cc.ts.Reg[15] = int64(p)
		cc.ts.Reg[14] = int64(cfg.NProcs)
		m.cores = append(m.cores, cc)
	}
	return m
}

// nextCore selects the non-halted core with the minimum clock, ties
// broken by lowest processor index — the deterministic global time order.
// A core's clock only advances when it is stepped, so a linear scan here
// is equivalent to the priority queue it replaces, without boxing a
// (clock, proc) pair per scheduling decision.
func (m *Machine) nextCore() int {
	best := -1
	var bestClock uint64
	for p, cc := range m.cores {
		if cc.ts.Halted {
			continue
		}
		if best < 0 || cc.tm.Clock < bestClock {
			best, bestClock = p, cc.tm.Clock
		}
	}
	return best
}

// Run executes until every thread halts (or the instruction budget is
// exhausted) and returns the run statistics.
func (m *Machine) Run() Stats {
	m.ms = AcquireMemSys(&m.Cfg)
	dmaIdx := 0
	budget := m.Cfg.maxInsts()
	var total uint64

	for {
		p := m.nextCore()
		if p < 0 {
			break
		}
		cc := m.cores[p]
		now := cc.tm.Clock

		// Apply device activity scheduled before this point in global
		// time: DMA writes memory directly on the classic machine.
		for dmaIdx < len(m.Devs.DMA) && m.Devs.DMA[dmaIdx].Time <= now {
			tr := m.Devs.DMA[dmaIdx]
			for i, v := range tr.Data {
				a := tr.Addr + uint32(i)
				m.Mem.Store(a, v)
				m.ms.DMAWrite(isa.LineOf(a))
			}
			m.stats.DMAs++
			dmaIdx++
		}
		// Deliver pending interrupts for this processor.
		m.deliverInterrupts(p, cc, now)

		if total >= budget {
			break
		}
		total += m.step(p, cc)
	}

	st := &m.stats
	st.Converged = true
	for p, cc := range m.cores {
		if !cc.ts.Halted {
			st.Converged = false
		}
		if cc.tm.Clock > st.Cycles {
			st.Cycles = cc.tm.Clock
		}
		st.Insts += cc.insts
		st.MemOps += cc.memOps
		st.PerProc = append(st.PerProc, ProcStats{
			Cycles:      cc.tm.Clock,
			Insts:       cc.insts,
			MemOps:      cc.memOps,
			StallCycles: cc.tm.StallCycles,
		})
		_ = p
	}
	st.C2CTransfers, st.Upgrades = m.ms.C2CTransfers, m.ms.Upgrades
	ReleaseMemSys(m.ms)
	m.ms = nil
	return *st
}

func (m *Machine) deliverInterrupts(p int, cc *classicCore, now uint64) {
	if cc.prog.IntrVec < 0 {
		return
	}
	ivs := m.Devs.Interrupts
	for cc.nextIRQ < len(ivs) {
		// Scan forward to this proc's next interrupt.
		for cc.nextIRQ < len(ivs) && ivs[cc.nextIRQ].Proc != p {
			cc.nextIRQ++
		}
		if cc.nextIRQ >= len(ivs) || ivs[cc.nextIRQ].Time > now || cc.ts.InIntr {
			return
		}
		iv := ivs[cc.nextIRQ]
		cc.nextIRQ++
		cc.ts.EnterInterrupt(cc.prog.IntrVec, iv.Type, iv.Data, iv.HighPriority)
		m.stats.Interrupts++
		return // one at a time; the next is considered after the handler
	}
}

// step advances processor p by one batch of non-memory work plus at most
// one memory/I-O/fence instruction, returning retired instructions.
func (m *Machine) step(p int, cc *classicCore) uint64 {
	const batch = 4096
	n, pend := isa.RunToMemOpTimed(&cc.ts, cc.prog, batch, &cc.tm.regReady)
	cc.tm.ChargeALU(n)
	cc.insts += uint64(n)
	retired := uint64(n)
	if pend == nil {
		return retired
	}

	switch pend.Op {
	case isa.HALT:
		cc.tm.Drain()
		cc.ts.Halted = true
		cc.insts++
		return retired + 1

	case isa.FENCE:
		switch m.Model {
		case RC:
			cc.tm.Drain()
		case TSO:
			cc.tm.DrainStores()
		}
		cc.tm.Seq++
		cc.ts.PC++
		cc.insts++
		return retired + 1

	case isa.LD, isa.ST, isa.SWAP, isa.FADD, isa.CAS:
		m.memAccess(p, cc, pend)
		cc.insts++
		return retired + 1

	case isa.IORD:
		cc.tm.Drain()
		v := m.Devs.ReadPort(pend.Imm, cc.tm.Clock)
		cc.tm.Clock += m.Cfg.IOLat
		cc.tm.Seq++
		pend.Complete(&cc.ts, v)
		cc.insts++
		m.stats.IOOps++
		return retired + 1

	case isa.IOWR:
		cc.tm.Drain()
		m.Devs.WritePort(pend.Imm, uint64(cc.ts.Reg[pend.Rs]), cc.tm.Clock)
		cc.tm.Clock += m.Cfg.IOLat
		cc.tm.Seq++
		pend.Complete(&cc.ts, 0)
		cc.insts++
		m.stats.IOOps++
		return retired + 1
	}
	panic(fmt.Sprintf("sim: unexpected pending op %v", pend.Op))
}

func (m *Machine) memAccess(p int, cc *classicCore, in *isa.Inst) {
	// Address (and store-data) registers may depend on pending loads.
	cc.tm.WaitReg(in.Rs)
	if in.Op == isa.ST || in.Op.IsAtomic() {
		cc.tm.WaitReg(in.Rt)
	}

	addr := in.MemAddr(&cc.ts)
	line := isa.LineOf(addr)

	// Functional effect happens now, at this core's current clock, which
	// is the global-minimum time: this defines the recorded interleaving.
	old := m.Mem.Load(addr)
	if in.Op.IsStore() {
		m.Mem.Store(addr, in.NewValue(&cc.ts, old))
	}

	// Timing.
	switch {
	case in.Op.IsAtomic():
		// RMW: obtain exclusive, complete before proceeding. Under RC it
		// has release semantics toward buffered stores; outstanding loads
		// need not drain. Under SC the completion chain orders it anyway.
		if m.Model == RC || m.Model == TSO {
			cc.tm.DrainStores()
		}
		lat := m.ms.Store(p, line)
		cc.tm.Seq++
		done := cc.tm.Clock + lat
		if m.Model == SC || m.Model == TSO {
			done = maxu(done, cc.tm.scLastDone+1)
			cc.tm.scLastDone = done
		}
		cc.tm.advance(done)
		cc.tm.regReady[in.Rd] = done
	case in.Op == isa.LD:
		lat := m.ms.Load(p, line)
		cc.tm.LoadOp(lat, lat == m.Cfg.L1Lat, m.Model == SC, in.Rd)
	default: // ST
		lat := m.ms.Store(p, line)
		switch m.Model {
		case RC:
			cc.tm.StoreRC(lat, lat == m.Cfg.L1Lat)
		case TSO:
			cc.tm.StoreTSO(lat, lat == m.Cfg.L1Lat)
		default:
			cc.tm.StoreSC(lat, lat == m.Cfg.L1Lat)
		}
	}

	cc.memOps++
	if m.Obs != nil {
		m.Obs.OnAccess(AccessEvent{
			Proc:          p,
			Time:          cc.tm.Clock,
			Line:          line,
			Addr:          addr,
			Read:          in.Op.IsLoad(),
			Write:         in.Op.IsStore(),
			MemOp:         cc.memOps,
			Inst:          cc.insts + 1,
			Value:         old,
			StoresPending: cc.tm.PendingStores() > 0,
		})
	}
	in.Complete(&cc.ts, old)
}

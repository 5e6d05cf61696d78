// Package baseline implements the prior-work memory-race recorders the
// paper compares DeLorean against: FDR, (Basic) RTR, and Strata.
//
// All three run on the classic SC machine model, consuming its global
// access stream (sim.Observer). They exist so the paper's "fraction of
// RTR's log" comparisons can be made against baselines measured on the
// same workloads, rather than constants quoted from other papers. The
// paper's own estimate — about 1 byte per processor per kilo-instruction
// of compressed Memory Races Log for Basic RTR — is exported as
// RTRReferenceBitsPerKinst for the figures' reference lines.
package baseline

import (
	"delorean/internal/device"
	"delorean/internal/flat"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
)

// RTRReferenceBitsPerKinst is the paper's estimated compressed Basic RTR
// log size: ~1 B (8 bits) per processor per kilo-instruction.
const RTRReferenceBitsPerKinst = 8.0

// Recorder is a memory-ordering recorder attached to the SC machine.
type Recorder interface {
	sim.Observer
	// Name identifies the scheme.
	Name() string
	// Entries returns the number of logged dependences / strata.
	Entries() int
	// RawBits returns the uncompressed log size in bits.
	RawBits() int
	// CompressedBits returns the LZ77-compressed log size in bits.
	CompressedBits() int
}

// fanout multiplexes the access stream to several recorders so one SC
// run feeds all baselines.
type fanout []Recorder

func (f fanout) OnAccess(e sim.AccessEvent) {
	for _, r := range f {
		r.OnAccess(e)
	}
}

// Run executes progs to completion on the SC machine with the given
// recorders attached and returns the machine statistics. One run feeds
// every recorder, so their log sizes are directly comparable.
func Run(cfg sim.Config, progs []*isa.Program, memory *mem.Memory, devs *device.Devices, recs ...Recorder) sim.Stats {
	return RunModel(cfg, sim.SC, progs, memory, devs, recs...)
}

// RunModel is Run under an explicit consistency model — Advanced RTR
// records on the TSO machine.
func RunModel(cfg sim.Config, model sim.Model, progs []*isa.Program, memory *mem.Memory, devs *device.Devices, recs ...Recorder) sim.Stats {
	m := sim.NewMachine(cfg, model, progs, memory, devs)
	m.Obs = fanout(recs)
	return m.Run()
}

// BitsPerProcPerKinst converts a log size to the paper's unit: bits per
// processor per kilo-instruction executed by that processor, i.e. total
// bits per total kilo-instruction (see core.Recording.BitsPerProcPerKinst).
func BitsPerProcPerKinst(bits int, nprocs int, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	_ = nprocs
	return float64(bits) / (float64(insts) / 1000.0)
}

// lineState tracks the last accesses to one cache line for dependence
// detection: the last writer and the last read per processor, as
// per-processor memory-operation counts (0 = never).
type lineState struct {
	writerProc  int32 // -1 none
	writerOp    uint64
	writerInst  uint64
	writerTime  uint64   // cycle of the last write (AdvancedRTR)
	readerOp    []uint64 // per proc, memop count of last read
	readerInst  []uint64
	writerStrat uint32 // stratum index + 1 (Strata)
	readerStrat []uint32
}

// slabLines is how many lines' per-processor slices one slab allocation
// covers.
const slabLines = 256

// lineTable maps lines to their dependence state. The states live in one
// slice indexed through a flat table, and their per-processor slices are
// cut from slabs, so a new line costs no allocation of its own. get may
// move the states: no caller holds a *lineState across another get.
type lineTable struct {
	nprocs int
	index  flat.Table // line -> position in states
	states []lineState
	ops    []uint64 // slab for readerOp and readerInst
	strats []uint32 // slab for readerStrat
}

func newLineTable(nprocs int) *lineTable {
	return &lineTable{nprocs: nprocs}
}

func (t *lineTable) get(line uint32) *lineState {
	i, fresh := t.index.Ptr(line)
	if !fresh {
		return &t.states[*i]
	}
	*i = uint64(len(t.states))
	n := t.nprocs
	if len(t.ops) < 2*n {
		t.ops = make([]uint64, 2*n*slabLines)
		t.strats = make([]uint32, n*slabLines)
	}
	t.states = append(t.states, lineState{
		writerProc:  -1,
		readerOp:    t.ops[:n:n],
		readerInst:  t.ops[n : 2*n : 2*n],
		readerStrat: t.strats[:n:n],
	})
	t.ops, t.strats = t.ops[2*n:], t.strats[n:]
	return &t.states[len(t.states)-1]
}

// Package baseline implements the prior-work memory-race recorders the
// paper compares DeLorean against: FDR, (Basic) RTR, and Strata.
//
// All three run on the classic SC machine model, reading its global
// access stream through one line history that Run and RunModel keep for
// every recorder attached to the run. They exist so the paper's
// "fraction of RTR's log" comparisons can be made against baselines
// measured on the same workloads, rather than constants quoted from
// other papers. The paper's own estimate — about 1 byte per processor
// per kilo-instruction of compressed Memory Races Log for Basic RTR — is
// exported as RTRReferenceBitsPerKinst for the figures' reference lines.
package baseline

import (
	"delorean/internal/device"
	"delorean/internal/flat"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/runner"
	"delorean/internal/sim"
)

// RTRReferenceBitsPerKinst is the paper's estimated compressed Basic RTR
// log size: ~1 B (8 bits) per processor per kilo-instruction.
const RTRReferenceBitsPerKinst = 8.0

// Recorder is a memory-ordering recorder attached to a classic machine
// by Run or RunModel.
type Recorder interface {
	// Name identifies the scheme.
	Name() string
	// Entries returns the number of logged dependences / strata.
	Entries() int
	// RawBits returns the uncompressed log size in bits.
	RawBits() int
	// CompressedBits returns the LZ77-compressed log size in bits.
	CompressedBits() int
	// Log returns the raw log, its last byte zero-padded. The caller
	// must not modify it.
	Log() []byte
	// observe sees access e to a line whose history ls holds, before e
	// is added to it. index numbers the line densely from 0 in order of
	// first access, for state a recorder keeps per line itself.
	observe(e sim.AccessEvent, ls *lineState, index int)
}

// observer feeds one access stream to several recorders over one shared
// line history, so one run feeds every baseline: each access costs one
// history lookup whatever the number of recorders.
type observer struct {
	hist *history
	recs []Recorder
}

func newObserver(nprocs int, recs []Recorder) *observer {
	return &observer{hist: newHistory(nprocs), recs: recs}
}

// OnAccess implements sim.Observer: every recorder observes e against
// the line's history before e, then e is added to it.
func (o *observer) OnAccess(e sim.AccessEvent) {
	ls, index := o.hist.get(e.Line)
	for _, r := range o.recs {
		r.observe(e, ls, index)
	}
	ls.add(e)
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
	obs := newObserver(cfg.NProcs, recs)
	m.Obs = obs
	st := m.Run()
	histories.Put(obs.hist)
	return st
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

// lineState is one cache line's access history, all a dependence
// recorder needs of the past: the last writer and, per processor, the
// last read since that write. A reader instruction of 0 means none.
type lineState struct {
	writerProc int32 // -1 none
	writerInst uint64
	writerTime uint64   // cycle of the last write (AdvancedRTR)
	readerInst []uint64 // per proc, instruction of the last read
}

// add records access e. A counted event's reads all repeat the last one,
// so its fields are the last reader's.
func (ls *lineState) add(e sim.AccessEvent) {
	if e.Write {
		ls.writerProc = int32(e.Proc)
		ls.writerInst = e.Inst
		ls.writerTime = e.Time
		clear(ls.readerInst)
	}
	if e.Read {
		ls.readerInst[e.Proc] = e.Inst
	}
}

// slabLines is how many lines' reader slices one slab allocation covers.
const slabLines = 256

// history maps lines to their access history. The states live in one
// slice indexed through a flat table, and their reader slices are cut
// from slabs, so a new line costs no allocation of its own. get may move
// the states: no caller holds a *lineState across another get.
//
// Histories outlive runs (see histories). Past len(lines), up to its
// capacity, lines keeps the states an earlier run used, each with a
// reader slice of its own; a new line at such a position reuses that
// slice when it has the run's processor count.
type history struct {
	nprocs int
	index  flat.Table // line -> position in lines
	lines  []lineState
	slab   []uint64 // unused tail of the current readerInst slab
}

// histories carries line histories from finished runs to later ones, so
// a run's index table, state slice and slabs start at the capacity an
// earlier run grew instead of growing from empty.
var histories runner.FreeList[*history]

// newHistory returns an empty history for nprocs processors, recycling a
// released one when there is one.
func newHistory(nprocs int) *history {
	h, ok := histories.Get()
	if !ok {
		return &history{nprocs: nprocs}
	}
	h.nprocs = nprocs
	h.index.Reset()
	h.lines = h.lines[:0]
	return h
}

// get returns line's history and its position in first-access order.
func (h *history) get(line uint32) (*lineState, int) {
	i, fresh := h.index.Ptr(line)
	if !fresh {
		return &h.lines[*i], int(*i)
	}
	k := len(h.lines)
	*i = uint64(k)
	n := h.nprocs
	var r []uint64
	if k < cap(h.lines) {
		r = h.lines[:k+1][k].readerInst // an earlier run's, or nil
	}
	if len(r) == n {
		clear(r)
	} else {
		if len(h.slab) < n {
			h.slab = make([]uint64, n*slabLines)
		}
		r, h.slab = h.slab[:n:n], h.slab[n:]
	}
	h.lines = append(h.lines, lineState{writerProc: -1, readerInst: r})
	return &h.lines[k], k
}

package baseline

import (
	"delorean/internal/bitio"
	"delorean/internal/lz77"
	"delorean/internal/sim"
)

// RTR implements Xu et al.'s Regulated Transitive Reduction (the Basic,
// SC variant). Two mechanisms shrink the log relative to FDR:
//
//  1. Regulation: instead of recording the precise source point of a
//     dependence, the recorder introduces a stricter artificial
//     dependence from the source processor's most recent globally
//     performed instruction. The stricter edge is consistent with the
//     observed total order (the source's current point precedes the
//     destination's access), and it raises the transitive-reduction
//     watermark much faster, eliminating future log entries.
//
//  2. Stride vectors: recurring dependences between the same processor
//     pair with regular instruction-count deltas (the common case in
//     loop-level sharing) collapse into one vector entry carrying a
//     repeat count.
type RTR struct {
	nprocs  int
	lines   *lineTable
	vc      [][]uint64
	curInst []uint64 // most recent instruction count per processor

	// Pending stride runs per (destination, source) pair: recurring
	// dependences between one processor pair form stride runs even when
	// dependences from other sources interleave.
	runs [][]strideRun
	// lastDst is the per-destination delta base for entry encoding.
	lastDst []uint64

	entries int
	w       bitio.Writer
}

type strideRun struct {
	valid    bool
	srcProc  int
	srcStart uint64
	dstStart uint64
	dSrc     int64
	dDst     int64
	count    int
	lastSrc  uint64
	lastDst  uint64
}

// NewRTR builds a recorder for nprocs processors.
func NewRTR(nprocs int) *RTR {
	r := &RTR{nprocs: nprocs, lines: newLineTable(nprocs)}
	for p := 0; p < nprocs; p++ {
		r.vc = append(r.vc, make([]uint64, nprocs))
	}
	r.curInst = make([]uint64, nprocs)
	r.lastDst = make([]uint64, nprocs)
	for p := 0; p < nprocs; p++ {
		r.runs = append(r.runs, make([]strideRun, nprocs))
	}
	return r
}

// Name implements Recorder.
func (r *RTR) Name() string { return "RTR" }

// regQuantum is the regulation granularity: artificial dependences are
// rounded up to the next multiple, so one logged (stricter) dependence
// transitively implies every dependence whose true source lies below the
// quantum boundary — including the bursts of WAR dependences that
// spinning readers otherwise generate one by one. Quantized source
// points are also multiples of the quantum, which keeps the stride
// vectors regular.
const regQuantum = 64

func (r *RTR) dependence(srcProc int, srcInst uint64, dstProc int, dstInst uint64) {
	if srcProc == dstProc || srcInst == 0 {
		return
	}
	if r.vc[dstProc][srcProc] >= srcInst {
		return
	}
	// Regulate: strengthen to the source's current point, rounded UP to
	// the next quantum — an artificial dependence on a (possibly future)
	// instruction of the source. Replay stalls the destination slightly
	// longer than strictly necessary; in exchange the watermark advances
	// in big steps and eliminates the churn.
	reg := r.curInst[srcProc]
	if reg < srcInst {
		reg = srcInst
	}
	reg = (reg/regQuantum + 1) * regQuantum
	r.emit(srcProc, reg, dstProc, dstInst)
	r.vc[dstProc][srcProc] = reg
}

// emit folds the dependence into the (dst, src) pair's stride run when
// possible, flushing the run when the pattern breaks.
func (r *RTR) emit(srcProc int, srcInst uint64, dstProc int, dstInst uint64) {
	run := &r.runs[dstProc][srcProc]
	if run.valid {
		dS := int64(srcInst) - int64(run.lastSrc)
		dD := int64(dstInst) - int64(run.lastDst)
		if run.count == 1 {
			run.dSrc, run.dDst = dS, dD
			run.count = 2
			run.lastSrc, run.lastDst = srcInst, dstInst
			return
		}
		if dS == run.dSrc && dD == run.dDst {
			run.count++
			run.lastSrc, run.lastDst = srcInst, dstInst
			return
		}
	}
	r.flushRun(dstProc, srcProc)
	*run = strideRun{
		valid: true, srcProc: srcProc,
		srcStart: srcInst, dstStart: dstInst,
		lastSrc: srcInst, lastDst: dstInst, count: 1,
	}
}

func (r *RTR) flushRun(dstProc, srcProc int) {
	run := &r.runs[dstProc][srcProc]
	if !run.valid {
		return
	}
	// Entry: srcProc(4) | vector flag(1) | dst delta (per destination) |
	// src point relative to the dst point | [strides + count].
	//
	// The source-relative-to-destination encoding exploits temporal
	// correlation: a dependence's two endpoints are near-simultaneous, so
	// their instruction counts differ by far less than either advances
	// between log entries. This is what keeps the (rare, regulated)
	// entries small.
	r.entries++
	r.w.WriteBits(uint64(run.srcProc), 4)
	r.w.WriteBool(run.count > 1)
	r.w.WriteUvarint(zigzag(int64(run.dstStart) - int64(r.lastDst[dstProc])))
	r.w.WriteUvarint(zigzag((int64(run.srcStart) - int64(run.dstStart)) / regQuantum))
	if run.count > 1 {
		r.w.WriteUvarint(zigzag(run.dSrc / regQuantum))
		r.w.WriteUvarint(zigzag(run.dDst))
		r.w.WriteUvarint(uint64(run.count - 1))
	}
	r.lastDst[dstProc] = run.lastDst
	run.valid = false
}

// OnAccess implements sim.Observer.
func (r *RTR) OnAccess(e sim.AccessEvent) {
	r.curInst[e.Proc] = e.Inst
	ls := r.lines.get(e.Line)
	if e.Read {
		if ls.writerProc >= 0 {
			r.dependence(int(ls.writerProc), ls.writerInst, e.Proc, e.Inst)
		}
	}
	if e.Write {
		if ls.writerProc >= 0 {
			r.dependence(int(ls.writerProc), ls.writerInst, e.Proc, e.Inst)
		}
		for q := 0; q < r.nprocs; q++ {
			if q != e.Proc && ls.readerInst[q] > 0 {
				r.dependence(q, ls.readerInst[q], e.Proc, e.Inst)
			}
		}
		ls.writerProc = int32(e.Proc)
		ls.writerInst = e.Inst
		ls.writerTime = e.Time
		for q := range ls.readerInst {
			ls.readerInst[q] = 0
		}
	}
	if e.Read {
		ls.readerInst[e.Proc] = e.Inst
	}
}

func (r *RTR) flushAll() {
	for p := 0; p < r.nprocs; p++ {
		for q := 0; q < r.nprocs; q++ {
			r.flushRun(p, q)
		}
	}
}

// Entries implements Recorder.
func (r *RTR) Entries() int {
	r.flushAll()
	return r.entries
}

// RawBits implements Recorder.
func (r *RTR) RawBits() int {
	r.flushAll()
	return r.w.Len()
}

// CompressedBits implements Recorder.
func (r *RTR) CompressedBits() int {
	r.flushAll()
	return lz77.CompressedBits(r.w.Bytes())
}

var _ Recorder = (*RTR)(nil)

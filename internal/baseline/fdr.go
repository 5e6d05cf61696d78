package baseline

import (
	"delorean/internal/bitio"
	"delorean/internal/lz77"
	"delorean/internal/sim"
)

// FDR implements the Flight Data Recorder's Memory Races Log with its
// hardware transitive-reduction optimization: each processor keeps a
// vector of the latest source instruction count already ordered before it
// per remote processor, and a dependence (q, i_q) → (p, i_p) is logged
// only when i_q exceeds that watermark. Entries hold the source processor
// ID plus delta-encoded instruction counts of both endpoints.
type FDR struct {
	nprocs int
	// vc[p][q]: the latest instruction of q known ordered before p's
	// current point (via a logged or implied dependence).
	vc [][]uint64
	// lastLoggedSrc/Dst support delta encoding per destination proc.
	lastSrc []uint64
	lastDst []uint64

	entries int
	w       bitio.Writer
}

// NewFDR builds a recorder for nprocs processors.
func NewFDR(nprocs int) *FDR {
	f := &FDR{nprocs: nprocs}
	for p := 0; p < nprocs; p++ {
		f.vc = append(f.vc, make([]uint64, nprocs))
	}
	f.lastSrc = make([]uint64, nprocs)
	f.lastDst = make([]uint64, nprocs)
	return f
}

// Name implements Recorder.
func (f *FDR) Name() string { return "FDR" }

func (f *FDR) log(srcProc int, srcInst uint64, dstProc int, dstInst uint64) {
	f.entries++
	f.w.WriteBits(uint64(srcProc), 4)
	f.w.WriteUvarint(zigzag(int64(srcInst) - int64(f.lastSrc[dstProc])))
	f.w.WriteUvarint(dstInst - f.lastDst[dstProc])
	f.lastSrc[dstProc] = srcInst
	f.lastDst[dstProc] = dstInst
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// dependence processes an observed dependence with transitive reduction.
func (f *FDR) dependence(srcProc int, srcInst uint64, dstProc int, dstInst uint64) {
	if srcProc == dstProc || srcInst == 0 {
		return
	}
	if f.vc[dstProc][srcProc] >= srcInst {
		return // transitively implied
	}
	f.log(srcProc, srcInst, dstProc, dstInst)
	f.vc[dstProc][srcProc] = srcInst
}

// observe implements Recorder. A counted event folds exactly: its reads
// repeat a read whose dependence is already logged or implied, and the
// last of them sets the last-reader fields the event carries.
func (f *FDR) observe(e sim.AccessEvent, ls *lineState, _ int) {
	// RAW or WAW from the last writer: one dependence, also for a
	// read-modify-write, which is both.
	if ls.writerProc >= 0 {
		f.dependence(int(ls.writerProc), ls.writerInst, e.Proc, e.Inst)
	}
	if e.Write {
		// WAR from every last reader.
		for q, inst := range ls.readerInst {
			if q != e.Proc && inst > 0 {
				f.dependence(q, inst, e.Proc, e.Inst)
			}
		}
	}
}

// Entries implements Recorder.
func (f *FDR) Entries() int { return f.entries }

// RawBits implements Recorder.
func (f *FDR) RawBits() int { return f.w.Len() }

// CompressedBits implements Recorder.
func (f *FDR) CompressedBits() int { return lz77.CompressedBits(f.w.Bytes()) }

// Log implements Recorder.
func (f *FDR) Log() []byte { return f.w.Bytes() }

var _ Recorder = (*FDR)(nil)

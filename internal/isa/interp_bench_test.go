package isa_test

import (
	"testing"

	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/workload"
)

// interpSchedule is one workload's interleaving, recorded once so the
// timed loop spends no time on memory: the workload's programs run round
// robin, one RunToMemOpTimed call per turn, and loaded holds the value each
// pending memory or I/O instruction completed with, in completion order.
type interpSchedule struct {
	progs  []*isa.Program
	loaded []uint64
	insts  int
}

const (
	interpProcs  = 4
	interpBudget = 2000
)

// interleave runs the programs round robin to completion. When m is
// non-nil it performs every memory op sequentially consistently against
// it and appends the value each pending instruction completes with to
// *loaded; otherwise it completes them from *loaded in order. It returns
// the number of instructions RunToMemOpTimed retired.
func interleave(progs []*isa.Program, m *mem.Memory, loaded *[]uint64) int {
	sts := make([]isa.ThreadState, len(progs))
	for p := range sts {
		sts[p].Reg[15] = int64(p)
		sts[p].Reg[14] = int64(len(progs))
	}
	retired, next := 0, 0
	var ready [isa.NumRegs]uint64
	for live := len(progs); live > 0; {
		for p := range sts {
			st := &sts[p]
			if st.Halted {
				continue
			}
			n, i := isa.RunToMemOpTimed(st, progs[p], interpBudget, &ready)
			retired += n
			switch {
			case i == nil:
			case i.Op == isa.HALT:
				st.Halted = true
				live--
			case i.Op == isa.FENCE:
				st.PC++
			case m == nil:
				i.Complete(st, (*loaded)[next])
				next++
			default:
				var v uint64
				if i.Op.IsMem() {
					a := i.MemAddr(st)
					v = m.Load(a)
					if i.Op.IsStore() {
						m.Store(a, i.NewValue(st, v))
					}
				}
				*loaded = append(*loaded, v)
				i.Complete(st, v)
			}
		}
	}
	return retired
}

// BenchmarkInterpreter measures the instruction interpreter alone on the
// real workload programs: every workload at 4 processors and scale 120k,
// interleaved through RunToMemOpTimed with a 2000-instruction budget. Memory
// ops are not simulated in the timed loop; they complete from values
// recorded in an untimed sequentially consistent run. It reports
// nanoseconds per retired instruction.
func BenchmarkInterpreter(b *testing.B) {
	var scheds []interpSchedule
	for _, name := range workload.Names() {
		w := workload.Get(name, workload.Params{NProcs: interpProcs, Scale: 120_000, Seed: 1})
		s := interpSchedule{progs: w.Progs}
		s.insts = interleave(w.Progs, w.InitMem(), &s.loaded)
		scheds = append(scheds, s)
	}
	total := 0
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, s := range scheds {
			if got := interleave(s.progs, nil, &s.loaded); got != s.insts {
				b.Fatalf("replayed %d instructions, recorded %d", got, s.insts)
			}
			total += s.insts
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/inst")
}

package bulksc

import (
	"testing"

	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/trace"
	"delorean/internal/workload"
)

// BenchmarkChunkStartSquash measures the chunk lifecycle hot path: start
// a chunk, populate a realistic read/write footprint, then retire it the
// way a squash or commit does. The core's free list hands the retired
// chunk back whole, buffers included, so the steady state allocates
// nothing.
func BenchmarkChunkStartSquash(b *testing.B) {
	e := &Engine{Cfg: sim.Default8()}
	e.ms = sim.AcquireMemSys(&e.Cfg)
	defer sim.ReleaseMemSys(e.ms)
	l1 := e.ms.L1(0)
	co := &core{proc: 0, specInSet: make([]int32, l1.NumSets())}
	e.cores = []*core{co}
	var ckpt isa.ThreadState
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := e.newChunk(co, uint64(i), ckpt, 2000)
		for a := uint32(0); a < 64; a++ {
			c.NoteRead(a)
			if c.Write(a<<5, uint64(a)) {
				co.specInSet[l1.SetOf(isa.LineOf(a<<5))]++
			}
		}
		e.releaseChunk(co, c)
	}
}

// BenchmarkEngineRun measures one whole Engine.Run on a 4-processor
// ~20k-iteration mixed workload (contended lock, atomic counter, private
// store stream) in `go test -bench`, without the experiment harness. Each
// run takes its memory from mem.Get and hands it back, as every run site
// does.
func BenchmarkEngineRun(b *testing.B) {
	bench := func(traced bool) func(*testing.B) {
		return func(b *testing.B) {
			cfg := sim.Default8()
			cfg.NProcs = 4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := &Engine{
					Cfg: cfg,
					Progs: []*isa.Program{
						lockIncProgram(0x1000, 0x2000, 5000),
						lockIncProgram(0x1000, 0x2000, 5000),
						atomicIncProgram(0x3000, 20000),
						storeStream(0x8000, 20000),
					},
					Mem: mem.Get(),
				}
				if traced {
					e.Trace = trace.NewSink(cfg.NProcs)
				}
				if st := e.Run(); !st.Converged {
					b.Fatalf("engine did not converge")
				}
				mem.Put(e.Mem)
			}
		}
	}
	b.Run("seq", bench(false))
	// seq-traced bounds the observability layer's enabled cost; seq is
	// the <2%-overhead-when-disabled reference.
	b.Run("seq-traced", bench(true))
	// barrier is the quick-scale ocean kernel, barrier-bound: most of its
	// scheduler steps are spin-waits, which the engine parks.
	b.Run("barrier", func(b *testing.B) {
		w := workload.Get("ocean", workload.Params{NProcs: 4, Scale: 8_000, Seed: 1})
		cfg := sim.Default8()
		cfg.NProcs = 4
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs}
			if st := e.Run(); !st.Converged {
				b.Fatalf("engine did not converge")
			}
			mem.Put(e.Mem)
		}
	})
}

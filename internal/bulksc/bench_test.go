package bulksc

import (
	"testing"

	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/sim"
	"delorean/internal/trace"
)

// BenchmarkChunkStartSquash measures the chunk lifecycle hot path: start
// a chunk, populate a realistic read/write footprint, then retire it the
// way a squash or commit does. With the engine's free list the interior
// maps are recycled, so steady-state allocations are just the chunk
// object and its written-line slice (which escapes to the arbiter and is
// deliberately not pooled).
func BenchmarkChunkStartSquash(b *testing.B) {
	e := &Engine{Cfg: sim.Default8()}
	co := &core{proc: 0}
	e.cores = []*core{co}
	var ckpt isa.ThreadState
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := e.newChunk(co, uint64(i), ckpt, 2000)
		for a := uint32(0); a < 64; a++ {
			c.NoteRead(a)
			c.Write(a<<5, uint64(a))
		}
		e.releaseChunk(c)
	}
}

// BenchmarkEngineRun measures one whole Engine.Run on a 4-processor
// ~20k-iteration mixed workload (contended lock, atomic counter, private
// store stream) in `go test -bench`, without the experiment harness.
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
					Mem: mem.New(),
				}
				if traced {
					e.Trace = trace.NewSink(cfg.NProcs)
				}
				if st := e.Run(); !st.Converged {
					b.Fatalf("engine did not converge")
				}
			}
		}
	}
	b.Run("seq", bench(false))
	// seq-traced bounds the observability layer's enabled cost; seq is
	// the <2%-overhead-when-disabled reference.
	b.Run("seq-traced", bench(true))
}

// Corruption-class tests: every class of damaged log must surface as a
// typed error — ErrCorruptLog from the loader/validator, or a
// *DivergenceError with a meaningful kind (and, where the damage is
// localized to one processor, that processor's ID) from the replayer.
package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"delorean/internal/core"
	"delorean/internal/device"
	"delorean/internal/diffcheck"
	"delorean/internal/dlog"
	"delorean/internal/isa"
)

func recordRacy(t *testing.T, mode core.Mode) (*core.Recording, []*isa.Program) {
	t.Helper()
	cfg := fuzzConfig(4, 200)
	progs := diffcheck.GenPrograms(7, 4, diffcheck.DefaultGen())
	rec, err := core.Record(cfg, mode, progs, nil, nil, core.RecordOptions{TruncSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return rec, progs
}

func serializeRec(t *testing.T, rec *core.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorruptContainerClasses: damaged serialized containers must be
// rejected with ErrCorruptLog — never a panic, never a partial
// Recording.
func TestCorruptContainerClasses(t *testing.T) {
	rec, _ := recordRacy(t, core.OrderOnly)
	good := serializeRec(t, rec)

	// Header layout: magic[0:4] version[4:6] mode[6] nprocs[7:9]
	// chunkSize[9:13].
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"short-header", func(b []byte) []byte { return b[:3] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad-version", func(b []byte) []byte { b[4], b[5] = 0xff, 0xff; return b }},
		{"bad-mode", func(b []byte) []byte { b[6] = 9; return b }},
		{"zero-procs", func(b []byte) []byte { b[7], b[8] = 0, 0; return b }},
		{"huge-procs", func(b []byte) []byte { b[7], b[8] = 0xff, 0xff; return b }},
		{"zero-chunk", func(b []byte) []byte { b[9], b[10], b[11], b[12] = 0, 0, 0, 0; return b }},
		{"huge-chunk", func(b []byte) []byte { b[9], b[10], b[11], b[12] = 0xff, 0xff, 0xff, 0xff; return b }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-5] }},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damaged := tc.mutate(append([]byte(nil), good...))
			r, err := core.ReadRecording(bytes.NewReader(damaged))
			if err == nil {
				t.Fatalf("loader accepted %s (got %v)", tc.name, r)
			}
			if !errors.Is(err, core.ErrCorruptLog) {
				t.Fatalf("error does not wrap ErrCorruptLog: %v", err)
			}
		})
	}
}

// TestValidateRejectsMalformedLogs: in-range containers whose log
// *contents* are inconsistent fail Validate (ErrCorruptLog) at replay
// entry, before any simulation runs.
func TestValidateRejectsMalformedLogs(t *testing.T) {
	cases := []struct {
		name   string
		mode   core.Mode
		mutate func(rec *core.Recording)
	}{
		{"pi-proc-out-of-range", core.OrderOnly, func(rec *core.Recording) {
			rec.PI.Entries()[0] = rec.NProcs + 3
		}},
		{"zero-cs-size", core.OrderOnly, func(rec *core.Recording) {
			cs := dlog.NewCSLog(rec.ChunkSize)
			cs.Append(2, 0) // sizes below 1 are meaningless
			rec.CS[1] = cs
		}},
		{"oversize-cs", core.OrderOnly, func(rec *core.Recording) {
			cs := dlog.NewCSLog(rec.ChunkSize * 2) // wider than the header claims
			cs.Append(2, rec.ChunkSize+1)
			rec.CS[1] = cs
		}},
		{"missing-sizes", core.OrderSize, func(rec *core.Recording) {
			rec.Sizes = nil
		}},
		{"spurious-sizes", core.OrderOnly, func(rec *core.Recording) {
			rec.Sizes = []*dlog.SizeLog{dlog.NewSizeLog(rec.ChunkSize)}
		}},
		{"pi-in-picolog", core.PicoLog, func(rec *core.Recording) {
			rec.PI = dlog.NewPILog(rec.NProcs)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, progs := recordRacy(t, tc.mode)
			tc.mutate(rec)
			_, err := core.Replay(rec, core.ReplayConfig(fuzzConfig(4, 200)), progs, core.ReplayOptions{})
			if !errors.Is(err, core.ErrCorruptLog) {
				t.Fatalf("Replay = %v, want ErrCorruptLog", err)
			}
		})
	}
}

// TestDivergenceKindStallOnTruncatedPI: a PI log missing its tail
// starves the replay arbiter; the engine must terminate (not hang) and
// the error must be a DivergenceError of kind "stall".
func TestDivergenceKindStallOnTruncatedPI(t *testing.T) {
	rec, progs := recordRacy(t, core.OrderOnly)
	entries := rec.PI.Entries()
	pi := dlog.NewPILog(rec.NProcs)
	for _, p := range entries[:len(entries)/2] {
		pi.Append(p)
	}
	rec.PI = pi

	_, err := core.Replay(rec, core.ReplayConfig(fuzzConfig(4, 200)), progs, core.ReplayOptions{})
	var div *core.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("Replay = %v, want *DivergenceError", err)
	}
	if div.Kind != "stall" {
		t.Fatalf("Kind = %q, want \"stall\": %v", div.Kind, div)
	}
}

// privProg builds a private-memory-only loop; withIO adds an uncached
// port read whose value is stored privately. Programs built this way
// never interact, so corrupting one processor's input log must produce
// a divergence localized to exactly that processor.
func privProg(withIO bool, iters int) *isa.Program {
	a := isa.NewAsm()
	a.LockInit()
	a.Muli(9, 15, 0x1000)
	a.Addi(9, 9, 0x100000)
	a.Ldi(4, 0)
	a.Ldi(5, int64(iters))
	a.Label("loop")
	if withIO {
		a.Iord(6, 1)
		a.St(9, 1, 6)
	}
	a.Ld(6, 9, 0)
	a.Addi(6, 6, 1)
	a.St(9, 0, 6)
	a.Addi(4, 4, 1)
	a.Blt(4, 5, "loop")
	a.Halt()
	return a.Assemble()
}

// TestDivergenceLocalizedToCorruptedProc: flip one bit in processor 2's
// I/O log; replay must report a "state" divergence naming processor 2.
func TestDivergenceLocalizedToCorruptedProc(t *testing.T) {
	const ioProc = 2
	cfg := fuzzConfig(4, 200)
	progs := make([]*isa.Program, 4)
	for p := range progs {
		progs[p] = privProg(p == ioProc, 50)
	}
	for _, mode := range []core.Mode{core.OrderSize, core.OrderOnly, core.PicoLog} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			rec, err := core.Record(cfg, mode, progs, nil, device.New(11), core.RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			vals := rec.IO[ioProc].Values()
			if len(vals) == 0 {
				t.Fatal("no I/O recorded")
			}
			vals[len(vals)/2] ^= 1 << 17

			_, err = core.Replay(rec, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
			var div *core.DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("Replay = %v, want *DivergenceError", err)
			}
			if div.Kind != "state" || div.Proc != ioProc {
				t.Fatalf("divergence = %v, want kind \"state\" on proc %d", div, ioProc)
			}
		})
	}
}

// TestDivergenceStallOnExhaustedInputLogs: replay input logs that run
// dry mid-run — a truncated I/O value log or DMA log — must starve the
// engine into a typed "stall" divergence. (Found by the fault-injection
// harness: both paths used to panic inside the engine.)
func TestDivergenceStallOnExhaustedInputLogs(t *testing.T) {
	cfg := fuzzConfig(4, 200)
	t.Run("io", func(t *testing.T) {
		const ioProc = 2
		progs := make([]*isa.Program, 4)
		for p := range progs {
			progs[p] = privProg(p == ioProc, 50)
		}
		rec, err := core.Record(cfg, core.OrderOnly, progs, nil, device.New(11), core.RecordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		vals := rec.IO[ioProc].Values()
		if len(vals) < 2 {
			t.Fatal("not enough I/O recorded to truncate")
		}
		trunc := &dlog.IOLog{}
		for _, v := range vals[:len(vals)/2] {
			trunc.Append(v)
		}
		rec.IO[ioProc] = trunc

		_, err = core.Replay(rec, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
		var div *core.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("Replay = %v, want *DivergenceError", err)
		}
		if div.Kind != "stall" {
			t.Fatalf("Kind = %q, want \"stall\": %v", div.Kind, div)
		}
	})
	t.Run("dma", func(t *testing.T) {
		gen := diffcheck.SystemGen()
		gen.Iters = 400
		gen.DMAPeriod = 2_000
		progs := diffcheck.GenPrograms(9, 4, gen)
		devs := diffcheck.GenDevices(9, 4, gen)
		rec, err := core.Record(cfg, core.OrderOnly, progs, nil, devs, core.RecordOptions{TruncSeed: 9})
		if err != nil {
			t.Fatal(err)
		}
		entries := rec.DMA.Entries()
		if len(entries) < 2 {
			t.Fatal("not enough DMA committed to truncate")
		}
		trunc := &dlog.DMALog{}
		for _, e := range entries[:len(entries)/2] {
			trunc.Append(e)
		}
		rec.DMA = trunc

		_, err = core.Replay(rec, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
		var div *core.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("Replay = %v, want *DivergenceError", err)
		}
		if div.Kind != "stall" {
			t.Fatalf("Kind = %q, want \"stall\": %v", div.Kind, div)
		}
	})
}

// TestDivergenceOnCorruptChunkSizes: an in-range but wrong CS/size
// entry moves a chunk boundary; replay must detect it as a typed
// divergence (never return a clean non-matching result).
func TestDivergenceOnCorruptChunkSizes(t *testing.T) {
	t.Run("order-size", func(t *testing.T) {
		rec, progs := recordRacy(t, core.OrderSize)
		sizes := rec.Sizes[1].Sizes()
		if len(sizes) == 0 {
			t.Fatal("no size entries")
		}
		sl := dlog.NewSizeLog(rec.ChunkSize)
		for j, v := range sizes {
			if j == len(sizes)/2 {
				v = 1 + v%rec.ChunkSize // different in-range value
			}
			sl.Append(v)
		}
		rec.Sizes[1] = sl

		res, err := core.Replay(rec, core.ReplayConfig(fuzzConfig(4, 200)), progs, core.ReplayOptions{})
		var div *core.DivergenceError
		if !errors.As(err, &div) {
			if err == nil && res.Matches(rec) {
				t.Fatal("corrupted size log replayed to a full match")
			}
			t.Fatalf("Replay = %v, want *DivergenceError", err)
		}
	})
	t.Run("order-only-cs", func(t *testing.T) {
		rec, progs := recordRacy(t, core.OrderOnly)
		proc := -1
		for p := range rec.CS {
			if rec.CS[p].Len() > 0 {
				proc = p
				break
			}
		}
		if proc < 0 {
			t.Skip("no non-deterministic truncations this seed")
		}
		entries := rec.CS[proc].Entries()
		cs := dlog.NewCSLog(rec.ChunkSize)
		for j, e := range entries {
			size := e.Size
			if j == 0 {
				size = 1 + size%rec.ChunkSize
				if size == e.Size {
					size = 1 + (size+1)%rec.ChunkSize
				}
			}
			cs.Append(e.SeqID, size)
		}
		rec.CS[proc] = cs

		res, err := core.Replay(rec, core.ReplayConfig(fuzzConfig(4, 200)), progs, core.ReplayOptions{})
		var div *core.DivergenceError
		if !errors.As(err, &div) {
			if err == nil && res.Matches(rec) {
				t.Fatal("corrupted CS log replayed to a full match")
			}
			t.Fatalf("Replay = %v, want *DivergenceError", err)
		}
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/rng"
)

func roundTripRecording(t *testing.T, rec *Recording) *Recording {
	t.Helper()
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatalf("ReadRecording: %v", err)
	}
	return got
}

func TestSerializeRoundTripAllModes(t *testing.T) {
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(4, 300)
			progs := racyProgs(4, 80)
			rec := record(t, cfg, mode, progs, nil, RecordOptions{})
			got := roundTripRecording(t, rec)

			if got.Mode != rec.Mode || got.NProcs != rec.NProcs || got.ChunkSize != rec.ChunkSize {
				t.Fatal("header mismatch")
			}
			if got.Fingerprint != rec.Fingerprint || got.FinalMemHash != rec.FinalMemHash {
				t.Fatal("hashes mismatch")
			}
			if rec.PI != nil {
				if got.PI == nil || got.PI.Len() != rec.PI.Len() {
					t.Fatal("PI log mismatch")
				}
				for i, p := range rec.PI.Entries() {
					if got.PI.Entries()[i] != p {
						t.Fatalf("PI entry %d differs", i)
					}
				}
			} else if got.PI != nil {
				t.Fatal("phantom PI log")
			}

			// The loaded recording must replay deterministically.
			res, err := Replay(got, ReplayConfig(cfg), progs, ReplayOptions{
				Perturb: bulksc.DefaultPerturb(5),
			})
			if err != nil {
				t.Fatalf("replay of loaded recording: %v", err)
			}
			if !res.Matches(rec) {
				t.Fatal("loaded recording's replay diverged from the original")
			}
		})
	}
}

func TestSerializeWithSystemEventsAndStratified(t *testing.T) {
	// Full-fat recording: interrupts, I/O, DMA, and a stratified PI log —
	// every optional section of the container populated.
	cfg := testConfig(4, 250)
	prog4 := replicateProgs(systemProgram(120), 4)

	devs := device.New(42)
	devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
	devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)

	rec := record(t, cfg, OrderOnly, prog4, devs, RecordOptions{StratifyMax: 3})
	if rec.Stats.Interrupts == 0 || rec.Stats.IOOps == 0 || rec.Stats.DMAs == 0 {
		t.Fatal("setup: system events missing")
	}
	if rec.Stratified == nil {
		t.Fatal("setup: no stratified log")
	}
	got := roundTripRecording(t, rec)

	if got.Stratified == nil || got.Stratified.Len() != rec.Stratified.Len() {
		t.Fatal("stratified log did not round-trip")
	}
	if got.DMA.Len() != rec.DMA.Len() {
		t.Fatal("DMA log did not round-trip")
	}
	for p := 0; p < 4; p++ {
		if got.Intr[p].Len() != rec.Intr[p].Len() || got.IO[p].Len() != rec.IO[p].Len() {
			t.Fatalf("proc %d input logs did not round-trip", p)
		}
	}

	// Replay the loaded recording (both orderings).
	for _, strat := range []bool{false, true} {
		res, err := Replay(got, ReplayConfig(cfg), prog4, ReplayOptions{
			UseStratified: strat,
			Perturb:       bulksc.DefaultPerturb(11),
		})
		if err != nil {
			t.Fatalf("replay(strat=%v): %v", strat, err)
		}
		if !res.Matches(rec) {
			t.Fatalf("replay(strat=%v) diverged", strat)
		}
	}
}

func TestSerializePicoLogWithSlots(t *testing.T) {
	cfg := testConfig(4, 250)
	prog4 := replicateProgs(systemProgram(120), 4)
	devs := device.New(9)
	devs.GenerateInterrupts(rng.New(4), 4, 3_000, 2_000_000, 0.8) // mostly urgent
	devs.GenerateDMA(rng.New(5), 0x900, 4, 8, 6_000, 2_000_000)

	rec := record(t, cfg, PicoLog, prog4, devs, RecordOptions{})
	got := roundTripRecording(t, rec)
	if got.Slots.Len() != rec.Slots.Len() {
		t.Fatalf("slot log: %d vs %d", got.Slots.Len(), rec.Slots.Len())
	}
	res, err := Replay(got, ReplayConfig(cfg), prog4, ReplayOptions{
		Perturb: bulksc.DefaultPerturb(13),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches(rec) {
		t.Fatal("PicoLog replay from loaded recording diverged")
	}
}

// TestSerializeCheckpoints: the v3 checkpoint section round-trips, the
// loaded recording replays segmented, and the delta encoding is
// strictly smaller than serializing full images at every cut.
func TestSerializeCheckpoints(t *testing.T) {
	cfg := testConfig(4, 250)
	prog4 := replicateProgs(systemProgram(150), 4)
	devs := device.New(42)
	devs.GenerateInterrupts(rng.New(1), 4, 4_000, 2_000_000, 0.3)
	devs.GenerateDMA(rng.New(2), 0x900, 4, 8, 6_000, 2_000_000)
	rec := record(t, cfg, OrderOnly, prog4, devs, RecordOptions{CheckpointEvery: 25})
	if len(rec.Checkpoints) < 2 {
		t.Fatalf("setup: only %d checkpoints", len(rec.Checkpoints))
	}

	got := roundTripRecording(t, rec)
	if len(got.Checkpoints) != len(rec.Checkpoints) {
		t.Fatalf("checkpoints: %d vs %d", len(got.Checkpoints), len(rec.Checkpoints))
	}
	for i := range rec.Checkpoints {
		want, g := &rec.Checkpoints[i], &got.Checkpoints[i]
		if g.Slot != want.Slot || g.TokenAt != want.TokenAt ||
			g.Fingerprint != want.Fingerprint || g.IntervalFingerprint != want.IntervalFingerprint {
			t.Fatalf("checkpoint %d metadata did not round-trip", i)
		}
		if !slices.Equal(g.MemDelta, want.MemDelta) {
			t.Fatalf("checkpoint %d delta did not round-trip", i)
		}
		for p := range want.Procs {
			if g.Procs[p] != want.Procs[p] && (g.Procs[p].PendingIntr == nil ||
				want.Procs[p].PendingIntr == nil || *g.Procs[p].PendingIntr != *want.Procs[p].PendingIntr) {
				t.Fatalf("checkpoint %d proc %d state did not round-trip", i, p)
			}
		}
	}

	// The loaded recording supports segmented replay and interval replay.
	res, err := Replay(got, ReplayConfig(cfg), prog4, ReplayOptions{ReplayParallel: 4})
	if err != nil {
		t.Fatalf("segmented replay of loaded recording: %v", err)
	}
	if !res.Matches(rec) {
		t.Fatal("segmented replay of loaded recording diverged")
	}
	mid := len(got.Checkpoints) / 2
	ires, err := ReplayFromCheckpoint(got, mid, ReplayConfig(cfg), prog4, ReplayOptions{})
	if err != nil {
		t.Fatalf("interval replay of loaded recording: %v", err)
	}
	if !ires.MatchesInterval(got, mid) {
		t.Fatal("interval replay of loaded recording diverged")
	}
}

// streamProgram writes a fresh word every iteration, so the memory
// footprint grows monotonically: late checkpoints have large full
// images but small per-interval deltas — the access pattern delta
// encoding exists for.
func streamProgram(iters int) *isa.Program {
	a := isa.NewAsm()
	a.Ldi(1, 0x2000)
	a.Muli(2, 15, 0x1000)
	a.Add(1, 1, 2) // per-proc region base
	a.Ldi(3, 0)
	a.Ldi(4, int64(iters))
	a.Label("loop")
	a.Add(5, 1, 3)
	a.Add(6, 3, 15)
	a.Addi(6, 6, 1) // never store zero: zero words are elided from images
	a.St(5, 0, 6)
	a.Addi(3, 3, 1)
	a.Blt(3, 4, "loop")
	a.Halt()
	return a.Assemble()
}

// TestSerializeDeltaSmallerThanFullImages: on a growing-footprint
// workload the delta encoding must produce a strictly smaller stream
// than serializing the materialized image at every cut.
func TestSerializeDeltaSmallerThanFullImages(t *testing.T) {
	cfg := testConfig(4, 250)
	progs := replicateProgs(streamProgram(1000), 4)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 20})
	if len(rec.Checkpoints) < 3 {
		t.Fatalf("setup: only %d checkpoints", len(rec.Checkpoints))
	}
	var dbuf bytes.Buffer
	if _, err := rec.WriteTo(&dbuf); err != nil {
		t.Fatal(err)
	}

	// Re-serialize the same recording with every checkpoint carrying its
	// full image instead of the interval delta and compare.
	origCk := rec.Checkpoints
	fullCk := append([]IntervalCheckpoint(nil), origCk...)
	img := mem.New()
	img.Restore(rec.InitialMem)
	for i := range fullCk {
		img.ApplyDelta(origCk[i].MemDelta)
		fullCk[i].MemDelta = img.Snapshot()
	}
	rec.Checkpoints = fullCk
	var fbuf bytes.Buffer
	_, err := rec.WriteTo(&fbuf)
	rec.Checkpoints = origCk
	if err != nil {
		t.Fatal(err)
	}
	if dbuf.Len() >= fbuf.Len() {
		t.Fatalf("delta-encoded recording (%d bytes) not smaller than full-image encoding (%d bytes)",
			dbuf.Len(), fbuf.Len())
	}
	t.Logf("checkpointed recording: %d bytes delta-encoded vs %d full-image (%.2fx)",
		dbuf.Len(), fbuf.Len(), float64(fbuf.Len())/float64(dbuf.Len()))
}

// TestLoadersRejectUnsortedImages: the initial memory and every
// checkpoint delta are stored in strictly increasing address order, the
// only order WriteTo emits. A container that repeats an address or lists
// one out of order is corrupt, to the eager loader and to an indexed
// recording's materialization alike.
func TestLoadersRejectUnsortedImages(t *testing.T) {
	for name, data := range unsortedImageContainers(t) {
		if _, err := ReadRecording(bytes.NewReader(data)); !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: ReadRecording: %v", name, err)
		}
		rec, err := IndexRecording(data)
		if err == nil {
			err = rec.Materialize(0)
		}
		if !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: IndexRecording+Materialize: %v", name, err)
		}
	}
}

// unsortedImageContainers serializes a small checkpointed recording with
// its initial memory or its first checkpoint's delta replaced by an
// image that repeats an address ("dup") or descends ("desc").
func unsortedImageContainers(t *testing.T) map[string][]byte {
	t.Helper()
	cfg := testConfig(2, 100)
	progs := racyProgs(2, 20)
	memory := mem.New()
	memory.Store(0x100, 1)
	memory.Store(0x200, 2)
	rec, err := Record(cfg, OrderOnly, progs, memory.Snapshot(), nil, RecordOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) == 0 {
		t.Fatal("setup: no checkpoints")
	}
	out := map[string][]byte{}
	write := func(name string) {
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	initMem, delta := rec.InitialMem, rec.Checkpoints[0].MemDelta
	for kind, img := range map[string]mem.Image{
		"dup":  {{Addr: 0x100, Val: 1}, {Addr: 0x100, Val: 2}},
		"desc": {{Addr: 0x200, Val: 2}, {Addr: 0x100, Val: 1}},
	} {
		rec.InitialMem = img
		write("init-mem-" + kind)
		rec.InitialMem = initMem
		rec.Checkpoints[0].MemDelta = img
		write("ckpt-delta-" + kind)
		rec.Checkpoints[0].MemDelta = delta
	}
	return out
}

func TestReadRecordingRejectsGarbage(t *testing.T) {
	if _, err := ReadRecording(strings.NewReader("not a recording at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadRecording(strings.NewReader("DLRN")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// An otherwise valid container that declares a pre-v4 version is
	// rejected as corrupt: v4 is the only format.
	rec := record(t, testConfig(2, 300), OrderOnly, racyProgs(2, 40), nil, RecordOptions{})
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{2, 3} {
		old := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint16(old[4:6], version)
		if _, err := ReadRecording(bytes.NewReader(old)); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("version %d container: err = %v, want ErrCorruptLog", version, err)
		}
	}
}

func TestReadRecordingRejectsTruncation(t *testing.T) {
	cfg := testConfig(2, 300)
	progs := racyProgs(2, 40)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{})
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadRecording(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func replicateProgs(p *isa.Program, n int) []*isa.Program {
	ps := make([]*isa.Program, n)
	for i := range ps {
		ps[i] = p
	}
	return ps
}

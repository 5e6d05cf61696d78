package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/rng"
	"delorean/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed golden recording")

// TestGoldenRecording pins the v4 container bytes: the committed fixture
// must keep loading and describing exactly the same execution as a
// fresh recording of the same workload. A diff here means either the
// writer, the reader, or the simulated execution changed — regenerate
// with `go test -run Golden -update` only when that is intended.
func TestGoldenRecording(t *testing.T) {
	rec, progs, cfg := goldenRecording(t)
	path := filepath.Join("testdata", "golden.dlrn")

	var live bytes.Buffer
	if _, err := rec.WriteTo(&live); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, live.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden recording (regenerate with -update): %v", err)
	}

	// The writer is bit-stable: re-recording the workload serializes to
	// exactly the committed bytes.
	if !bytes.Equal(live.Bytes(), data) {
		t.Fatalf("live serialization (%d bytes) differs from golden (%d bytes); "+
			"run with -update if the format or simulator changed intentionally",
			live.Len(), len(data))
	}

	// The committed stream loads, carries the same stats and
	// verification hashes, and re-encodes to the same bytes — the decode
	// path is bit-faithful.
	got, err := ReadRecording(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("loading golden recording: %v", err)
	}
	if got.Stats.Insts != rec.Stats.Insts || got.Stats.Chunks != rec.Stats.Chunks ||
		got.Stats.Cycles != rec.Stats.Cycles {
		t.Fatalf("golden stats (%d insts, %d chunks, %d cycles) differ from live (%d, %d, %d)",
			got.Stats.Insts, got.Stats.Chunks, got.Stats.Cycles,
			rec.Stats.Insts, rec.Stats.Chunks, rec.Stats.Cycles)
	}
	if got.Fingerprint != rec.Fingerprint || got.FinalMemHash != rec.FinalMemHash {
		t.Fatal("golden verification hashes differ from live recording")
	}
	var reencoded bytes.Buffer
	if _, err := got.WriteTo(&reencoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded.Bytes(), data) {
		t.Fatal("golden recording re-encodes to different bytes")
	}

	// And it still replays deterministically.
	res, err := Replay(got, ReplayConfig(cfg), progs, ReplayOptions{
		Perturb: bulksc.DefaultPerturb(7),
	})
	if err != nil {
		t.Fatalf("replay of golden recording: %v", err)
	}
	if !res.Matches(got) {
		t.Fatal("replay of golden recording diverged")
	}
}

// TestGoldenV4RoundTrip: the same execution round-trips through the v4
// container — written, reloaded (both reader paths), and re-encoded
// byte-identically.
func TestGoldenV4RoundTrip(t *testing.T) {
	rec, _, _ := goldenRecording(t)
	var v4 bytes.Buffer
	if _, err := rec.WriteTo(&v4); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := ReadRecordingParallel(bytes.NewReader(v4.Bytes()), workers)
		if err != nil {
			t.Fatalf("load (workers=%d): %v", workers, err)
		}
		var re bytes.Buffer
		if _, err := got.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), v4.Bytes()) {
			t.Fatalf("v4 round trip (workers=%d) is not byte-stable", workers)
		}
	}
}

// goldenRecording records the fixed workload behind the golden fixture:
// a deterministic 4-processor system workload with interrupts, DMA,
// checkpoints, and a stratified log, so every container section is
// exercised.
func goldenRecording(t *testing.T) (*Recording, []*isa.Program, sim.Config) {
	t.Helper()
	cfg := testConfig(4, 250)
	progs := replicateProgs(systemProgram(130), 4)
	devs := device.New(17)
	devs.GenerateInterrupts(rng.New(3), 4, 4_000, 2_000_000, 0.3)
	devs.GenerateDMA(rng.New(6), 0x900, 4, 8, 6_000, 2_000_000)
	rec := record(t, cfg, OrderOnly, progs, devs, RecordOptions{
		CheckpointEvery: 30,
		StratifyMax:     3,
	})
	return rec, progs, cfg
}

package core

import (
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/workload"
)

// TestAllWorkloadsRecordReplay is the repository's determinism
// integration test: every workload (including the full-system ones with
// interrupts, I/O and DMA) records in OrderOnly and replays exactly under
// perturbed timing.
func TestAllWorkloadsRecordReplay(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workload.Get(name, workload.Params{NProcs: 4, Scale: 8000, Seed: 3})
			cfg := testConfig(4, 400)
			rec, err := Record(cfg, OrderOnly, w.Progs, w.Image, w.Devs, RecordOptions{})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			res, err := Replay(rec, ReplayConfig(cfg), w.Progs, ReplayOptions{
				Perturb: bulksc.DefaultPerturb(99),
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !res.Matches(rec) {
				t.Fatalf("replay diverged: fp %x vs %x, mem %x vs %x",
					res.Fingerprint, rec.Fingerprint, res.MemHash, rec.FinalMemHash)
			}
		})
	}
}

// TestWorkloadsPicoLogRecordReplay covers the predefined-order mode on a
// representative subset (contended, barrier-heavy, and full-system).
func TestWorkloadsPicoLogRecordReplay(t *testing.T) {
	for _, name := range []string{"raytrace", "radix", "lu", "sjbb2k"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workload.Get(name, workload.Params{NProcs: 4, Scale: 8000, Seed: 5})
			cfg := testConfig(4, 300)
			rec, err := Record(cfg, PicoLog, w.Progs, w.Image, w.Devs, RecordOptions{})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			res, err := Replay(rec, ReplayConfig(cfg), w.Progs, ReplayOptions{
				Perturb: bulksc.DefaultPerturb(123),
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !res.Matches(rec) {
				t.Fatal("PicoLog replay diverged")
			}
		})
	}
}

// TestWorkloadsOrderSizeRecordReplay covers non-deterministic chunking on
// a subset.
func TestWorkloadsOrderSizeRecordReplay(t *testing.T) {
	for _, name := range []string{"barnes", "ocean", "sweb2005"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workload.Get(name, workload.Params{NProcs: 4, Scale: 8000, Seed: 9})
			cfg := testConfig(4, 350)
			rec, err := Record(cfg, OrderSize, w.Progs, w.Image, w.Devs, RecordOptions{})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			res, err := Replay(rec, ReplayConfig(cfg), w.Progs, ReplayOptions{
				Perturb: bulksc.DefaultPerturb(321),
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !res.Matches(rec) {
				t.Fatal("Order&Size replay diverged")
			}
		})
	}
}

// TestStratifiedWorkloadReplay exercises stratified replay on a workload
// with real parallel phases.
func TestStratifiedWorkloadReplay(t *testing.T) {
	w := workload.Get("lu", workload.Params{NProcs: 4, Scale: 10000, Seed: 2})
	cfg := testConfig(4, 400)
	rec, err := Record(cfg, OrderOnly, w.Progs, w.Image, w.Devs, RecordOptions{StratifyMax: 3})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	res, err := Replay(rec, ReplayConfig(cfg), w.Progs, ReplayOptions{
		UseStratified: true,
		Perturb:       bulksc.DefaultPerturb(55),
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Matches(rec) {
		t.Fatal("stratified replay diverged")
	}
}

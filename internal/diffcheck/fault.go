package diffcheck

import (
	"delorean/internal/core"
	"delorean/internal/dlog"
	"delorean/internal/rng"
)

// The fault-injection layer deliberately damages a recording and then
// demands an honest outcome from the replayer. Three outcomes are
// acceptable, one is a bug:
//
//   - the loader rejects the bytes (error wrapping core.ErrCorruptLog);
//   - replay detects the damage (*core.DivergenceError, including the
//     "stall" kind for order logs that starve the replay arbiter);
//   - the damage was benign and replay fully matches the recording
//     (possible: a bit flip in serialization padding, or a PI swap of
//     two non-conflicting chunks — the paper's own stratified-replay
//     equivalence says such orders are interchangeable);
//   - NEVER: a clean replay result that does not match, or a hang.
//
// ByteFault damages the serialized container; RecordingFault damages a
// live Recording's logs (modeling in-memory or post-load corruption).

// ByteFault mutates a serialized recording.
type ByteFault struct {
	Name string
	// Apply returns the damaged bytes (input is not modified).
	Apply func(s *rng.Source, b []byte) []byte
}

// ByteFaults returns the serialized-container fault classes.
func ByteFaults() []ByteFault {
	return []ByteFault{
		{Name: "bitflip", Apply: func(s *rng.Source, b []byte) []byte {
			out := append([]byte(nil), b...)
			if len(out) == 0 {
				return out
			}
			i := s.Intn(len(out))
			out[i] ^= 1 << uint(s.Intn(8))
			return out
		}},
		{Name: "bitflip-burst", Apply: func(s *rng.Source, b []byte) []byte {
			out := append([]byte(nil), b...)
			for k := 0; k < 8 && len(out) > 0; k++ {
				i := s.Intn(len(out))
				out[i] ^= byte(1 + s.Intn(255))
			}
			return out
		}},
		{Name: "truncate", Apply: func(s *rng.Source, b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			return append([]byte(nil), b[:s.Intn(len(b))]...)
		}},
		{Name: "garbage-tail", Apply: func(s *rng.Source, b []byte) []byte {
			out := append([]byte(nil), b...)
			for k := 0; k < 16; k++ {
				out = append(out, byte(s.Uint64()))
			}
			return out
		}},
	}
}

// RecordingFault mutates a live Recording's logs.
type RecordingFault struct {
	Name string
	// Mutate damages rec, returning false when the fault does not apply
	// to this recording (e.g. no PI log in PicoLog mode, no CS entries).
	Mutate func(s *rng.Source, rec *core.Recording) bool
}

// RecordingFaults returns the log-corruption fault classes.
func RecordingFaults() []RecordingFault {
	return []RecordingFault{
		// Swap two PI entries naming different processors: the commit
		// interleaving replay enforces no longer matches the one the
		// values were produced under.
		{Name: "reorder-pi", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if rec.PI == nil || rec.PI.Len() < 2 {
				return false
			}
			entries := rec.PI.Entries() // shared slice: edits hit the log
			i := s.Intn(len(entries) - 1)
			for j := i + 1; j < len(entries); j++ {
				if entries[j] != entries[i] {
					entries[i], entries[j] = entries[j], entries[i]
					return true
				}
			}
			return false
		}},
		// Drop the PI log's tail: replay starves at the cut point.
		{Name: "truncate-pi", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if rec.PI == nil || rec.PI.Len() < 4 {
				return false
			}
			entries := rec.PI.Entries()
			keep := 1 + s.Intn(len(entries)-2)
			pi := dlog.NewPILog(rec.NProcs)
			for _, p := range entries[:keep] {
				pi.Append(p)
			}
			rec.PI = pi
			return true
		}},
		// Change one CS (non-deterministic truncation) entry's size to a
		// different in-range value: replay cuts that chunk at the wrong
		// boundary.
		{Name: "corrupt-cs", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			procs := s.Perm(rec.NProcs)
			for _, p := range procs {
				old := rec.CS[p]
				if old.Len() == 0 {
					continue
				}
				entries := old.Entries()
				i := s.Intn(len(entries))
				cs := dlog.NewCSLog(rec.ChunkSize)
				for j, e := range entries {
					size := e.Size
					if j == i {
						size = 1 + s.Intn(rec.ChunkSize)
						if size == e.Size {
							size = 1 + size%rec.ChunkSize
						}
					}
					cs.Append(e.SeqID, size)
				}
				rec.CS[p] = cs
				return true
			}
			return false
		}},
		// Order&Size: change one chunk-size entry to a different in-range
		// value.
		{Name: "corrupt-sizes", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if rec.Mode != core.OrderSize {
				return false
			}
			procs := s.Perm(rec.NProcs)
			for _, p := range procs {
				old := rec.Sizes[p]
				if old.Len() == 0 {
					continue
				}
				sizes := old.Sizes()
				i := s.Intn(len(sizes))
				sl := dlog.NewSizeLog(rec.ChunkSize)
				for j, v := range sizes {
					if j == i {
						v = 1 + s.Intn(rec.ChunkSize)
						if v == sizes[i] {
							v = 1 + v%rec.ChunkSize
						}
					}
					sl.Append(v)
				}
				rec.Sizes[p] = sl
				return true
			}
			return false
		}},
		// Flip a bit in a logged I/O value: the replayed processor
		// consumes a wrong input.
		{Name: "corrupt-io", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			procs := s.Perm(rec.NProcs)
			for _, p := range procs {
				vals := rec.IO[p].Values()
				if len(vals) == 0 {
					continue
				}
				vals[s.Intn(len(vals))] ^= 1 << uint(s.Intn(64))
				return true
			}
			return false
		}},
		// Flip a bit in a DMA payload word: replay writes wrong data into
		// memory.
		{Name: "corrupt-dma", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			entries := rec.DMA.Entries()
			for _, i := range s.Perm(len(entries)) {
				if len(entries[i].Data) == 0 {
					continue
				}
				entries[i].Data[s.Intn(len(entries[i].Data))] ^= 1 << uint(s.Intn(64))
				return true
			}
			return false
		}},
		// Drop the tail of one processor's I/O value log: replay starves
		// at the first unlogged uncached read (must stall, not panic).
		{Name: "truncate-io", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			procs := s.Perm(rec.NProcs)
			for _, p := range procs {
				vals := rec.IO[p].Values()
				if len(vals) < 2 {
					continue
				}
				trunc := &dlog.IOLog{}
				for _, v := range vals[:1+s.Intn(len(vals)-1)] {
					trunc.Append(v)
				}
				rec.IO[p] = trunc
				return true
			}
			return false
		}},
		// Drop the tail of the DMA log: the commit order demands a
		// transfer the log no longer holds (must stall, not panic).
		{Name: "truncate-dma", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			entries := rec.DMA.Entries()
			if len(entries) < 2 {
				return false
			}
			trunc := &dlog.DMALog{}
			for _, e := range entries[:1+s.Intn(len(entries)-1)] {
				trunc.Append(e)
			}
			rec.DMA = trunc
			return true
		}},
		// Retarget one interrupt delivery to a different handler chunk.
		{Name: "shift-intr", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			procs := s.Perm(rec.NProcs)
			for _, p := range procs {
				entries := rec.Intr[p].Entries()
				if len(entries) == 0 {
					continue
				}
				il := &dlog.IntrLog{}
				bump := uint64(1 + s.Intn(3))
				for _, e := range entries {
					e.SeqID += bump // preserves monotonicity
					il.Append(e)
				}
				rec.Intr[p] = il
				return true
			}
			return false
		}},
	}
}

// CheckpointFaults returns fault classes that damage the checkpoint
// section of a recording. A sequential replay never reads checkpoint
// images, so these faults can be invisible to it; the segmented replay
// is the oracle that must catch every one (value damage surfaces as a
// per-interval divergence, structural damage is rejected by Validate).
func CheckpointFaults() []RecordingFault {
	return []RecordingFault{
		// Flip a bit in one checkpoint's memory delta. Every delta word
		// was written during its interval with the recorded value, so the
		// interval's replay reproduces the true value and the damaged
		// expected image can never match.
		{Name: "corrupt-ckpt-delta", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			for _, i := range s.Perm(len(rec.Checkpoints)) {
				d := rec.Checkpoints[i].MemDelta
				if len(d) == 0 {
					continue
				}
				d[s.Intn(len(d))].Val ^= 1 << uint(s.Intn(64))
				return true
			}
			return false
		}},
		// Flip a bit in one checkpoint's interval fingerprint: the
		// interval's replay can no longer match it.
		{Name: "corrupt-ckpt-intervalfp", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if len(rec.Checkpoints) == 0 {
				return false
			}
			i := s.Intn(len(rec.Checkpoints))
			rec.Checkpoints[i].IntervalFingerprint ^= 1 << uint(s.Intn(64))
			return true
		}},
		// Flip a bit in the last checkpoint's cumulative fingerprint: the
		// final interval's suffix check must fail. (Only the last cut's
		// cumulative fingerprint is read by segmented replay.)
		{Name: "corrupt-ckpt-cumfp", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if len(rec.Checkpoints) == 0 {
				return false
			}
			rec.Checkpoints[len(rec.Checkpoints)-1].Fingerprint ^= 1 << uint(s.Intn(64))
			return true
		}},
		// Swap two checkpoints' commit slots: the cut sequence is no
		// longer strictly increasing, which Validate must reject.
		{Name: "reorder-ckpt-slots", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if len(rec.Checkpoints) < 2 {
				return false
			}
			i := s.Intn(len(rec.Checkpoints) - 1)
			cps := rec.Checkpoints
			cps[i].Slot, cps[i+1].Slot = cps[i+1].Slot, cps[i].Slot
			return true
		}},
		// Point one processor's I/O-consumption cursor past its log:
		// structural damage Validate must reject before replay starts.
		{Name: "corrupt-ckpt-iocursor", Mutate: func(s *rng.Source, rec *core.Recording) bool {
			if len(rec.Checkpoints) == 0 {
				return false
			}
			i := s.Intn(len(rec.Checkpoints))
			p := s.Intn(rec.NProcs)
			rec.Checkpoints[i].Procs[p].IOConsumed = rec.IO[p].Len() + 1 + s.Intn(8)
			return true
		}},
	}
}

package diffcheck

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"

	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/isa"
	"delorean/internal/lz77"
	"delorean/internal/mem"
	"delorean/internal/rng"
	"delorean/internal/sim"
)

// Options configures one differential check run.
type Options struct {
	NProcs    int
	ChunkSize int
	// ReplayWorkers lists the segmented-replay worker counts that must
	// all reach the sequential replay's verdict with identical results;
	// the last entry also drives the checkpoint-fault oracle.
	ReplayWorkers []int
	// CheckpointEvery is the chunk-commit period for the interval-replay
	// oracle (0 disables it).
	CheckpointEvery uint64
	// MaxInsts bounds every execution — the anti-hang backstop for
	// fault-injected replays.
	MaxInsts uint64
	// Gen generates the racy workload for the record/replay,
	// serialization and fault oracles. The cross-model oracle always
	// uses a race-free derivation of it.
	Gen GenConfig
	// Faults enables the fault-injection oracles.
	Faults bool
}

// DefaultOptions returns the standard matrix: 4 processors, small
// chunks (more interleaving per instruction), segmented-replay worker
// counts {1, 2, 8}, checkpoints, device traffic, and fault injection.
func DefaultOptions() Options {
	return Options{
		NProcs:          4,
		ChunkSize:       200,
		ReplayWorkers:   []int{1, 2, 8},
		CheckpointEvery: 25,
		MaxInsts:        30_000_000,
		Gen:             SystemGen(),
		Faults:          true,
	}
}

func (o Options) machine() sim.Config {
	c := sim.Default8()
	c.NProcs = o.NProcs
	c.ChunkSize = o.ChunkSize
	c.MaxInsts = o.MaxInsts
	return c
}

// Report is the outcome of Check for one seed.
type Report struct {
	Seed     uint64
	Checks   int      // oracle comparisons performed
	Benign   int      // injected faults that turned out architecturally benign
	Failures []string // empty iff the seed passed
}

// OK reports whether every oracle held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *Report) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.failf(format, args...)
	}
}

var modes = []core.Mode{core.OrderSize, core.OrderOnly, core.PicoLog}

// Check runs the full differential matrix for one seed and returns a
// report. It is deterministic in (seed, opts).
func Check(seed uint64, opts Options) Report {
	rep := Report{Seed: seed}
	cfg := opts.machine()

	crossModel(&rep, seed, opts, cfg)

	progs := GenPrograms(seed, opts.NProcs, opts.Gen)
	for _, mode := range modes {
		checkMode(&rep, seed, opts, cfg, mode, progs)
	}
	return rep
}

// crossModel checks that a race-free generated program reaches the same
// final memory state under SC, RC, and all three chunked recording
// modes — the models must agree wherever the memory model permits no
// visible difference.
func crossModel(rep *Report, seed uint64, opts Options, cfg sim.Config) {
	rf := opts.Gen
	rf.RaceFree = true
	rf.IntrPeriod, rf.DMAPeriod, rf.IOFrac = 0, 0, 0
	progs := GenPrograms(seed, opts.NProcs, rf)

	classic := func(model sim.Model) (uint64, bool) {
		m := sim.NewMachine(cfg, model, progs, mem.New(), nil)
		st := m.Run()
		return m.Mem.Hash(), st.Converged
	}
	sc, okSC := classic(sim.SC)
	rc, okRC := classic(sim.RC)
	rep.check(okSC && okRC, "cross-model: classic run did not converge (SC=%v RC=%v)", okSC, okRC)
	if !okSC || !okRC {
		return
	}
	rep.check(sc == rc, "cross-model: SC %x != RC %x on race-free program", sc, rc)

	for _, mode := range modes {
		rec, err := core.Record(cfg, mode, progs, nil, nil, core.RecordOptions{})
		if err != nil {
			rep.failf("cross-model: %v record: %v", mode, err)
			continue
		}
		rep.check(rec.FinalMemHash == sc,
			"cross-model: %v final memory %x != SC %x on race-free program", mode, rec.FinalMemHash, sc)
	}
}

// checkMode runs the per-mode oracles: perturbed replay determinism,
// serialization and lz77 round trips, interval and segmented replay, and
// fault injection.
func checkMode(rep *Report, seed uint64, opts Options, cfg sim.Config, mode core.Mode, progs []*isa.Program) {
	record := func(every uint64) (*core.Recording, error) {
		return core.Record(cfg, mode, progs, nil, GenDevices(seed, opts.NProcs, opts.Gen),
			core.RecordOptions{TruncSeed: seed, CheckpointEvery: every})
	}

	rec, err := record(0)
	if err != nil {
		rep.failf("%v: record: %v", mode, err)
		return
	}
	base := serialize(rep, mode, rec)
	if base == nil {
		return
	}
	saveLoadOracle(rep, mode, rec, base)
	lazyResidency(rep, cfg, mode, progs, rec, base)

	// Oracle: the serialized recording loads back, re-serializes to the
	// same bytes, and its perturbed replay reproduces the original
	// execution with the same committed instruction count.
	rec2, err := core.ReadRecording(bytes.NewReader(base))
	if err != nil {
		rep.failf("%v: reload: %v", mode, err)
		return
	}
	if b2 := serialize(rep, mode, rec2); b2 != nil {
		rep.check(bytes.Equal(b2, base), "%v: reload re-serializes differently", mode)
	}
	res, err := core.Replay(rec2, core.ReplayConfig(cfg), progs, core.ReplayOptions{
		Perturb: bulksc.DefaultPerturb(seed*7 + 3),
	})
	if err != nil {
		rep.failf("%v: perturbed replay: %v", mode, err)
	} else {
		rep.check(res.Matches(rec), "%v: perturbed replay does not match recording", mode)
		rep.check(res.Stats.Insts == rec.Stats.Insts,
			"%v: replay committed %d insts, recording %d", mode, res.Stats.Insts, rec.Stats.Insts)
	}

	lzRoundTrip(rep, mode, rec)

	if opts.CheckpointEvery > 0 {
		intervalReplay(rep, seed, opts, cfg, mode, progs, base, record)
	}
	if opts.Faults {
		injectByteFaults(rep, seed, cfg, mode, progs, base)
		injectLogFaults(rep, seed, cfg, mode, progs, base)
	}
}

// saveLoadOracle checks the serialization pipeline itself: the v4 save
// emits byte-identical streams at every compression worker count, and
// loading at every decode worker count reconstructs the same recording.
func saveLoadOracle(rep *Report, mode core.Mode, rec *core.Recording, base []byte) {
	for _, workers := range []int{1, 2, 8} {
		var buf bytes.Buffer
		if _, err := rec.WriteToParallel(&buf, workers); err != nil {
			rep.failf("%v: save workers=%d: %v", mode, workers, err)
			continue
		}
		rep.check(bytes.Equal(buf.Bytes(), base),
			"%v: save workers=%d bytes differ from default", mode, workers)
	}
	for _, workers := range []int{1, 4} {
		got, err := core.ReadRecordingParallel(bytes.NewReader(base), workers)
		if err != nil {
			rep.failf("%v: load workers=%d: %v", mode, workers, err)
			continue
		}
		if b := serialize(rep, mode, got); b != nil {
			rep.check(bytes.Equal(b, base),
				"%v: load workers=%d re-serializes differently", mode, workers)
		}
	}
}

// lazyResidency checks the on-demand residency path the serving daemon
// relies on: an index-only recording (frame headers parsed, payloads
// left compressed) must replay to the same verdict as the eagerly
// decoded one, survive a Release/rematerialize cycle bit-identically,
// and re-serialize to the canonical bytes.
func lazyResidency(rep *Report, cfg sim.Config, mode core.Mode, progs []*isa.Program,
	rec *core.Recording, base []byte) {
	want, err := core.Replay(rec, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
	if err != nil {
		rep.failf("%v: lazy oracle: eager replay: %v", mode, err)
		return
	}
	lazy, err := core.IndexRecording(base)
	if err != nil {
		rep.failf("%v: lazy oracle: IndexRecording: %v", mode, err)
		return
	}
	for _, pass := range []string{"indexed", "rematerialized"} {
		got, err := core.Replay(lazy, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
		if err != nil {
			rep.failf("%v: lazy oracle: %s replay: %v", mode, pass, err)
			return
		}
		rep.check(got.Matches(rec), "%v: lazy oracle: %s replay does not match recording", mode, pass)
		rep.check(got.Fingerprint == want.Fingerprint && got.MemHash == want.MemHash &&
			got.Stats.Insts == want.Stats.Insts && got.Stats.Cycles == want.Stats.Cycles,
			"%v: lazy oracle: %s verdict differs from eager replay", mode, pass)
		if pass == "indexed" {
			lazy.Release() // evict back to canonical bytes, then replay again
		}
	}
	if b := serialize(rep, mode, lazy); b != nil {
		rep.check(bytes.Equal(b, base), "%v: lazy oracle: re-serialization differs from canonical bytes", mode)
	}
}

func serialize(rep *Report, mode core.Mode, rec *core.Recording) []byte {
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		rep.failf("%v: serialize: %v", mode, err)
		return nil
	}
	return buf.Bytes()
}

// lzRoundTrip checks that every log's packed form survives LZ77
// compression — the compressed sizes the evaluation reports must
// describe losslessly recoverable logs.
func lzRoundTrip(rep *Report, mode core.Mode, rec *core.Recording) {
	round := func(name string, b []byte) {
		packed, bits := lz77.Compress(b)
		out, err := lz77.Decompress(packed, bits, len(b))
		if err != nil {
			rep.failf("%v: lz77 %s: %v", mode, name, err)
			return
		}
		rep.check(bytes.Equal(out, b), "%v: lz77 %s round trip differs", mode, name)
	}
	if rec.PI != nil {
		b, _ := rec.PI.Pack()
		round("PI", b)
	}
	for p, cs := range rec.CS {
		if cs.Len() > 0 {
			b, _ := cs.Pack()
			round(fmt.Sprintf("CS[%d]", p), b)
		}
	}
	for p, sl := range rec.Sizes {
		if sl.Len() > 0 {
			b, _ := sl.Pack()
			round(fmt.Sprintf("Sizes[%d]", p), b)
		}
	}
}

// intervalReplay records with periodic checkpoints (which must not
// change the execution: byte-identical serialization once the
// checkpoint section is stripped) and replays the first, middle and
// last interval. It then runs the segmented-replay and checkpoint-fault
// oracles on the same checkpointed recording.
func intervalReplay(rep *Report, seed uint64, opts Options, cfg sim.Config, mode core.Mode,
	progs []*isa.Program, base []byte, record func(every uint64) (*core.Recording, error)) {
	recCP, err := record(opts.CheckpointEvery)
	if err != nil {
		rep.failf("%v: record with checkpoints: %v", mode, err)
		return
	}
	ck := recCP.Checkpoints
	recCP.Checkpoints = nil
	if b := serialize(rep, mode, recCP); b != nil {
		rep.check(bytes.Equal(b, base), "%v: checkpointing changed the execution", mode)
	}
	recCP.Checkpoints = ck
	if len(recCP.Checkpoints) == 0 {
		rep.failf("%v: no checkpoints taken (every=%d, %d chunks)",
			mode, opts.CheckpointEvery, recCP.Stats.Chunks)
		return
	}
	for _, idx := range []int{0, len(recCP.Checkpoints) / 2, len(recCP.Checkpoints) - 1} {
		res, err := core.ReplayFromCheckpoint(recCP, idx, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
		if err != nil {
			rep.failf("%v: interval replay cp=%d: %v", mode, idx, err)
			continue
		}
		rep.check(res.MatchesInterval(recCP, idx),
			"%v: interval replay cp=%d does not match", mode, idx)
	}

	segmentedReplay(rep, opts, cfg, mode, progs, recCP)
	if opts.Faults {
		injectCheckpointFaults(rep, seed, opts, cfg, mode, progs, recCP)
	}
}

// segmentedReplay checks the segmented-replay oracle on a clean
// checkpointed recording: every worker count must reach the sequential
// verdict, and the segmented results must be byte-identical across
// worker counts — the fan-out is a scheduling choice, never an outcome.
func segmentedReplay(rep *Report, opts Options, cfg sim.Config, mode core.Mode,
	progs []*isa.Program, recCP *core.Recording) {
	seqRes, seqErr := core.Replay(recCP, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
	if seqErr != nil {
		rep.failf("%v: sequential replay of checkpointed recording: %v", mode, seqErr)
		return
	}
	rep.check(seqRes.Matches(recCP), "%v: sequential replay of checkpointed recording diverged", mode)

	var first *core.ReplayResult
	for _, par := range opts.ReplayWorkers {
		if par < 1 {
			continue
		}
		res, err := core.Replay(recCP, core.ReplayConfig(cfg), progs,
			core.ReplayOptions{ReplayParallel: par})
		if err != nil {
			rep.failf("%v: segmented replay par=%d: %v", mode, par, err)
			continue
		}
		rep.check(res.Fingerprint == seqRes.Fingerprint && res.MemHash == seqRes.MemHash,
			"%v: segmented replay par=%d verdict differs from sequential", mode, par)
		if first == nil {
			r := res
			first = &r
		} else {
			rep.check(reflect.DeepEqual(*first, res),
				"%v: segmented replay par=%d result differs across worker counts", mode, par)
		}
	}
}

// injectCheckpointFaults damages the checkpoint section and demands the
// segmented replay catch it. This is the documented oracle asymmetry:
// a sequential replay never reads checkpoint images, so it may well
// still report a clean match on the same damage — only the segmented
// replay (or Validate, for structural damage) sees it.
func injectCheckpointFaults(rep *Report, seed uint64, opts Options, cfg sim.Config,
	mode core.Mode, progs []*isa.Program, recCP *core.Recording) {
	base := serialize(rep, mode, recCP)
	if base == nil {
		return
	}
	par := opts.ReplayWorkers[len(opts.ReplayWorkers)-1]
	for fi, f := range CheckpointFaults() {
		s := rng.New(seed<<10 ^ uint64(fi)<<6 ^ uint64(mode))
		rec, err := core.ReadRecording(bytes.NewReader(base))
		if err != nil {
			rep.failf("%v/%s: reload for checkpoint fault: %v", mode, f.Name, err)
			return
		}
		if !f.Mutate(s, rec) {
			continue
		}
		_, err = core.Replay(rec, core.ReplayConfig(cfg), progs,
			core.ReplayOptions{ReplayParallel: par})
		var div *core.DivergenceError
		switch {
		case errors.As(err, &div), errors.Is(err, core.ErrCorruptLog):
			rep.Checks++ // detected: the desired outcome
		case err == nil:
			rep.Checks++
			rep.failf("%v/%s: segmented replay reported a clean match on a damaged checkpoint", mode, f.Name)
		default:
			rep.Checks++
			rep.failf("%v/%s: untyped segmented replay error: %v", mode, f.Name, err)
		}
	}
}

// faultOutcome classifies one damaged-recording replay. Acceptable:
// typed corruption error, typed divergence error, or a benign full
// match. Anything else — silent mismatch or an untyped error — fails.
func faultOutcome(rep *Report, rec *core.Recording, cfg sim.Config, progs []*isa.Program,
	name string, mode core.Mode) {
	res, err := core.Replay(rec, core.ReplayConfig(cfg), progs, core.ReplayOptions{})
	var div *core.DivergenceError
	switch {
	case err == nil:
		rep.check(res.Matches(rec), "%v/%s: replay returned clean non-matching result", mode, name)
		if res.Matches(rec) {
			rep.Benign++
		}
	case errors.As(err, &div):
		rep.Checks++ // detected: the desired outcome
	case errors.Is(err, core.ErrCorruptLog):
		rep.Checks++
	default:
		rep.Checks++
		rep.failf("%v/%s: untyped replay error: %v", mode, name, err)
	}
}

// injectByteFaults damages the serialized container and demands the
// loader or the replayer catch it.
func injectByteFaults(rep *Report, seed uint64, cfg sim.Config, mode core.Mode,
	progs []*isa.Program, base []byte) {
	for fi, f := range ByteFaults() {
		s := rng.New(seed<<8 ^ uint64(fi)<<4 ^ uint64(mode))
		damaged := f.Apply(s, base)
		rec, err := core.ReadRecording(bytes.NewReader(damaged))
		if err != nil {
			rep.check(errors.Is(err, core.ErrCorruptLog),
				"%v/%s: loader error does not wrap ErrCorruptLog: %v", mode, f.Name, err)
			continue
		}
		faultOutcome(rep, rec, cfg, progs, f.Name, mode)
	}
}

// injectLogFaults damages a freshly loaded recording's logs and demands
// replay detect the divergence.
func injectLogFaults(rep *Report, seed uint64, cfg sim.Config, mode core.Mode,
	progs []*isa.Program, base []byte) {
	for fi, f := range RecordingFaults() {
		s := rng.New(seed<<9 ^ uint64(fi)<<5 ^ uint64(mode))
		rec, err := core.ReadRecording(bytes.NewReader(base))
		if err != nil {
			rep.failf("%v/%s: reload for fault injection: %v", mode, f.Name, err)
			return
		}
		if !f.Mutate(s, rec) {
			continue // fault class not applicable to this recording
		}
		faultOutcome(rep, rec, cfg, progs, f.Name, mode)
	}
}

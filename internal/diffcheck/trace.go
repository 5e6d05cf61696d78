package diffcheck

import (
	"bytes"
	"reflect"

	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/trace"
)

// CheckTracing runs the observability oracle for one seed: tracing must
// be observation-only. For every mode it records untraced (the baseline)
// and traced twice, demanding byte-identical serialized recordings and
// identical Stats; it then demands the two captured timelines and
// counter sets be identical, and replays the recording traced and
// untraced, demanding the same verdict and stats. Deterministic in
// (seed, opts).
func CheckTracing(seed uint64, opts Options) Report {
	rep := Report{Seed: seed}
	cfg := opts.machine()
	progs := GenPrograms(seed, opts.NProcs, opts.Gen)

	for _, mode := range modes {
		record := func(sink *trace.Sink) (*core.Recording, error) {
			return core.Record(cfg, mode, progs, nil, GenDevices(seed, opts.NProcs, opts.Gen),
				core.RecordOptions{TruncSeed: seed, Trace: sink})
		}

		base, err := record(nil)
		if err != nil {
			rep.failf("%v: untraced record: %v", mode, err)
			continue
		}
		baseBytes := serialize(&rep, mode, base)
		if baseBytes == nil {
			continue
		}

		// Oracle: a traced recording is byte-identical to an untraced one,
		// and two traced runs capture the same timeline and counters.
		var sinks []*trace.Sink
		for run := 0; run < 2; run++ {
			sink := trace.NewSink(opts.NProcs)
			recT, err := record(sink)
			if err != nil {
				rep.failf("%v: traced record run %d: %v", mode, run, err)
				continue
			}
			rep.check(reflect.DeepEqual(recT.Stats, base.Stats),
				"%v: traced run %d stats differ from untraced", mode, run)
			if b := serialize(&rep, mode, recT); b != nil {
				rep.check(bytes.Equal(b, baseBytes),
					"%v: traced run %d recording bytes differ from untraced", mode, run)
			}
			rep.check(len(sink.Events()) > 0, "%v: traced run %d captured no events", mode, run)
			sinks = append(sinks, sink)
		}
		if len(sinks) == 2 {
			rep.check(reflect.DeepEqual(sinks[0].Events(), sinks[1].Events()),
				"%v: traced runs captured different timelines (%d vs %d events)",
				mode, len(sinks[0].Events()), len(sinks[1].Events()))
			rep.check(reflect.DeepEqual(sinks[0].Counters.Snapshot(), sinks[1].Counters.Snapshot()),
				"%v: traced runs captured different counters", mode)
		}

		// Oracle: tracing a replay changes neither the verdict nor the
		// stats, and the sink sees the replay's commits.
		resPlain, errPlain := core.Replay(base, core.ReplayConfig(cfg), progs, core.ReplayOptions{
			Perturb: bulksc.DefaultPerturb(seed*7 + 3),
		})
		sink := trace.NewSink(opts.NProcs)
		resTraced, errTraced := core.Replay(base, core.ReplayConfig(cfg), progs, core.ReplayOptions{
			Perturb: bulksc.DefaultPerturb(seed*7 + 3),
			Trace:   sink,
		})
		rep.check((errPlain == nil) == (errTraced == nil),
			"%v: traced replay verdict differs: %v vs %v", mode, errPlain, errTraced)
		if errPlain == nil && errTraced == nil {
			rep.check(resPlain.Matches(base) && resTraced.Matches(base),
				"%v: replay does not match recording (plain=%v traced=%v)",
				mode, resPlain.Matches(base), resTraced.Matches(base))
			rep.check(reflect.DeepEqual(resPlain.Stats, resTraced.Stats),
				"%v: traced replay stats differ from untraced", mode)
			rep.check(len(sink.Events()) > 0, "%v: traced replay captured no events", mode)
		}
	}
	return rep
}

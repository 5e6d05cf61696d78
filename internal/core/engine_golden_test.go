package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delorean/internal/arbiter"
	"delorean/internal/bulksc"
	"delorean/internal/device"
	"delorean/internal/isa"
	"delorean/internal/mem"
	"delorean/internal/rng"
	"delorean/internal/sim"
	"delorean/internal/trace"
	"delorean/internal/workload"
)

// traceObs serializes every observer callback into one text stream; two
// engine runs are equivalent iff their streams are byte-identical.
type traceObs struct {
	b strings.Builder
}

func (o *traceObs) OnCommit(ev bulksc.CommitEvent) {
	fmt.Fprintf(&o.b, "C p%d s%d n%d t%d slot%d r%d u%v sp%v h%016x R%x W%x\n",
		ev.Proc, ev.SeqID, ev.Size, ev.Time, ev.Slot, ev.Reason, ev.Urgent, ev.Split,
		ev.StoreHash, *ev.RSig, *ev.WSig)
}

func (o *traceObs) OnSquash(proc int, seqID uint64, insts int, committer int) {
	fmt.Fprintf(&o.b, "S p%d s%d n%d by%d\n", proc, seqID, insts, committer)
}

func (o *traceObs) OnInterrupt(proc int, handlerSeq uint64, typ, data int64, urgent bool) {
	fmt.Fprintf(&o.b, "I p%d s%d t%d d%d u%v\n", proc, handlerSeq, typ, data, urgent)
}

func (o *traceObs) OnIORead(proc int, port int64, value uint64) {
	fmt.Fprintf(&o.b, "R p%d port%d v%d\n", proc, port, value)
}

func (o *traceObs) OnDMACommit(slot uint64, addr uint32, data []uint64) {
	fmt.Fprintf(&o.b, "D slot%d a%d %v\n", slot, addr, data)
}

// devProgram is an interrupt-driven program: a work/I/O main loop plus a
// handler, so interrupt delivery, high-priority squashes and uncached
// accesses all interleave with chunk commits.
func devProgram(flagAddr uint32, iters int) *isa.Program {
	a := isa.NewAsm()
	a.SetIntrVec("ih")
	a.Ldi(1, int64(flagAddr))
	a.Ldi(3, 0)
	a.Ldi(4, int64(iters))
	a.Label("loop")
	a.Work(60, 9)
	a.Iord(5, 7)
	a.St(1, 0, 5)
	a.Addi(3, 3, 1)
	a.Blt(3, 4, "loop")
	a.Halt()
	a.Label("ih")
	a.Ldi(6, int64(flagAddr)+64)
	a.Ldi(7, 1)
	a.St(6, 0, 7)
	a.Iret()
	return a.Assemble()
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digest is one named component of a golden case.
type digest struct{ name, value string }

// engineCase is one pinned run: it returns its components in a fixed
// order (hashes of observer streams, Stats, recordings, timelines) plus
// the final memory hash.
type engineCase struct {
	name string
	run  func(t *testing.T) []digest
}

// runObserved runs e with a traceObs (checkpoints appended to the same
// stream) and returns the stream, Stats and final-memory digests.
func runObserved(t *testing.T, e *bulksc.Engine, wantConverged bool) []digest {
	t.Helper()
	obs := &traceObs{}
	e.Obs = obs
	if e.Mem == nil {
		e.Mem = mem.New()
	}
	if e.CheckpointEvery > 0 {
		e.OnCheckpoint = func(cp bulksc.Checkpoint) {
			fmt.Fprintf(&obs.b, "K %+v\n", cp) // map fields print sorted
		}
	}
	st := e.Run()
	if st.Converged != wantConverged {
		t.Fatalf("converged=%v, want %v", st.Converged, wantConverged)
	}
	return []digest{
		{"stream", sha(obs.b.String())},
		{"stats", sha(fmt.Sprintf("%+v", st))},
		{"mem", fmt.Sprintf("%016x", e.Mem.Hash())},
	}
}

// devicesEngine is the full-system workload: interrupt-driven programs
// with uncached I/O, high-priority interrupts and DMA traffic.
func devicesEngine(mode Mode) *bulksc.Engine {
	cfg := testConfig(4, 120)
	devs := device.New(9)
	devs.GenerateInterrupts(rng.New(42), 4, 4000, 200_000, 0.3)
	devs.GenerateDMA(rng.New(43), 0x40000, 6, 8, 9000, 120_000)
	devs.Finalize()
	progs := make([]*isa.Program, 4)
	for p := range progs {
		progs[p] = devProgram(uint32(0x6000+0x100*p), 25)
	}
	e := &bulksc.Engine{Cfg: cfg, Progs: progs, Devs: devs, CheckpointEvery: 40}
	switch mode {
	case OrderSize:
		e.RandomTrunc = bulksc.DefaultRandomTrunc(777)
	case PicoLog:
		e.Policy = arbiter.NewRoundRobin(4)
		e.PicoLog = true
	}
	return e
}

// recordDigests records progs in mode and pins the serialized recording,
// its Stats and final memory, then replays it under timing perturbation.
func recordDigests(t *testing.T, cfg sim.Config, mode Mode, progs []*isa.Program, memory *mem.Memory,
	devs *device.Devices, opts RecordOptions) (*Recording, []digest) {
	t.Helper()
	rec, err := Record(cfg, mode, progs, memory, devs, opts)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	res, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{Perturb: bulksc.DefaultPerturb(7)})
	if err != nil {
		t.Fatalf("perturbed replay: %v", err)
	}
	if !res.Matches(rec) {
		t.Fatal("perturbed replay diverged")
	}
	return rec, []digest{
		{"recording", sha(buf.String())},
		{"stats", sha(fmt.Sprintf("%+v", rec.Stats))},
		{"mem", fmt.Sprintf("%016x", rec.FinalMemHash)},
		{"replay", sha(fmt.Sprintf("%+v", res))},
	}
}

func engineGoldenCases() []engineCase {
	var cases []engineCase
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		mode := mode
		name := strings.ReplaceAll(mode.String(), "&", "")
		cases = append(cases, engineCase{"devices-" + name, func(t *testing.T) []digest {
			return runObserved(t, devicesEngine(mode), true)
		}})
	}
	cases = append(cases,
		engineCase{"racy-8p-perturb-trunc", func(t *testing.T) []digest {
			e := &bulksc.Engine{Cfg: testConfig(8, 200), Progs: racyProgs(8, 400),
				Perturb: bulksc.DefaultPerturb(12345), RandomTrunc: bulksc.DefaultRandomTrunc(777)}
			return runObserved(t, e, true)
		}},
		engineCase{"racy-4p-exact", func(t *testing.T) []digest {
			e := &bulksc.Engine{Cfg: testConfig(4, 150), Progs: racyProgs(4, 400), ExactConflicts: true}
			return runObserved(t, e, true)
		}},
	)
	// Exact budget stops: MaxInsts cuts the run mid-flight, and the run
	// must stop at precisely the same instruction every time.
	for _, budget := range []uint64{5_000, 50_000} {
		budget := budget
		cases = append(cases, engineCase{fmt.Sprintf("budget-%d", budget), func(t *testing.T) []digest {
			cfg := testConfig(4, 150)
			cfg.MaxInsts = budget
			return runObserved(t, &bulksc.Engine{Cfg: cfg, Progs: racyProgs(4, 100_000)}, false)
		}})
	}
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		mode := mode
		name := strings.ReplaceAll(mode.String(), "&", "")
		// A traced full-system recording: the recording must match the
		// untraced one byte for byte, and the timeline and counters are
		// pinned.
		cases = append(cases, engineCase{"sjbb2k-traced-" + name, func(t *testing.T) []digest {
			cfg := testConfig(4, 300)
			w := workload.Get("sjbb2k", workload.Params{NProcs: 4, Scale: 8000, Seed: 11})
			opts := RecordOptions{TruncSeed: 99, CheckpointEvery: 60}
			_, plain := recordDigests(t, cfg, mode, w.Progs, w.InitMem(), w.Devs, opts)
			sink := trace.NewSink(4)
			opts.Trace = sink
			_, traced := recordDigests(t, cfg, mode, w.Progs, w.InitMem(), w.Devs, opts)
			if fmt.Sprint(plain) != fmt.Sprint(traced) {
				t.Errorf("tracing changed the recording:\nplain:  %v\ntraced: %v", plain, traced)
			}
			var evs, ctrs strings.Builder
			for _, ev := range sink.Events() {
				fmt.Fprintf(&evs, "%+v\n", ev)
			}
			for _, c := range sink.Counters.Snapshot() {
				fmt.Fprintf(&ctrs, "%+v\n", c)
			}
			return append(plain, digest{"events", sha(evs.String())}, digest{"counters", sha(ctrs.String())})
		}})
	}
	return cases
}

func checkpointGoldenCases() []engineCase {
	var cases []engineCase
	for _, mode := range []Mode{OrderSize, OrderOnly, PicoLog} {
		mode := mode
		name := strings.ReplaceAll(mode.String(), "&", "")
		// Checkpoints far denser than a chunk round: nearly every cut
		// lands while other cores hold in-flight uncommitted chunks. Interval
		// replay from the first, middle and last cut must reproduce the
		// interval, and its perturbed result is pinned too.
		cases = append(cases, engineCase{"checkpoints7-" + name, func(t *testing.T) []digest {
			cfg := testConfig(4, 150)
			progs := racyProgs(4, 80)
			rec, ds := recordDigests(t, cfg, mode, progs, mem.New(), nil,
				RecordOptions{TruncSeed: 5, CheckpointEvery: 7})
			if len(rec.Checkpoints) < 3 {
				t.Fatalf("only %d checkpoints", len(rec.Checkpoints))
			}
			for _, idx := range []int{0, len(rec.Checkpoints) / 2, len(rec.Checkpoints) - 1} {
				res, err := ReplayFromCheckpoint(rec, idx, ReplayConfig(cfg), progs,
					ReplayOptions{Perturb: bulksc.DefaultPerturb(uint64(idx)*13 + 1)})
				if err != nil {
					t.Fatalf("interval replay cp=%d: %v", idx, err)
				}
				if !res.MatchesInterval(rec, idx) {
					t.Errorf("interval replay cp=%d diverged", idx)
				}
				ds = append(ds, digest{fmt.Sprintf("cp%d", idx), sha(fmt.Sprintf("%+v", res))})
			}
			return ds
		}})
	}
	return cases
}

// TestEngineGolden pins the engine's complete observable behaviour across
// commits: for every case, the SHA-256 of the observer stream (or the
// serialized recording), of Stats and of the final memory, plus perturbed
// replays and traced timelines. A diff means the simulated execution
// changed; regenerate with
// `go test ./internal/core -run TestEngineGolden -update` only when that
// is intended.
func TestEngineGolden(t *testing.T) {
	checkGolden(t, "engine.sha256", engineGoldenCases())
}

// TestCheckpointGolden pins recordings cut by checkpoints every 7 commits
// and the interval replays from their first, middle and last cut, the
// same way as TestEngineGolden.
func TestCheckpointGolden(t *testing.T) {
	checkGolden(t, "checkpoints.sha256", checkpointGoldenCases())
}

// checkGolden runs every case as a subtest and compares its line (name
// followed by its digests) with testdata/file, rewriting the file first
// under -update.
func checkGolden(t *testing.T, file string, cases []engineCase) {
	t.Helper()
	live := make([]string, len(cases))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			b.WriteString(c.name)
			for _, d := range c.run(t) {
				fmt.Fprintf(&b, " %s=%s", d.name, d.value)
			}
			live[i] = b.String()
		})
	}
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		for _, l := range live {
			if l == "" {
				t.Fatal("-update needs every case: drop the subtest filter")
			}
		}
		if err := os.WriteFile(path, []byte(strings.Join(live, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(l, " ")
		want[name] = l
	}
	if len(want) != len(cases) {
		t.Errorf("golden holds %d cases, the test defines %d", len(want), len(cases))
	}
	for i, c := range cases {
		if live[i] == "" {
			continue // filtered out by -run
		}
		if live[i] != want[c.name] {
			t.Errorf("%s diverges from golden:\n live:   %s\n golden: %s", c.name, live[i], want[c.name])
		}
	}
}

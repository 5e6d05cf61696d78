package bulksc

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delorean/internal/isa"
	"delorean/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed engine golden")

// traceObs serializes every observer callback into one text stream; two
// engine runs are equivalent iff their streams are byte-identical.
type traceObs struct {
	b strings.Builder
}

func (o *traceObs) OnCommit(ev CommitEvent) {
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

// goldenScenario builds a fresh engine for one pinned run.
type goldenScenario struct {
	name  string
	build func() *Engine
}

// goldenScenarios are lock-, atomic- and store-heavy workloads; the
// full-system (devices, PicoLog) runs are pinned in internal/core.
func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{name: "lock-contended-4p", build: func() *Engine {
			cfg := testConfig(4)
			cfg.ChunkSize = 150
			progs := make([]*isa.Program, 4)
			for p := range progs {
				progs[p] = lockIncProgram(8, 16, 80)
			}
			return &Engine{Cfg: cfg, Progs: progs}
		}},
		{name: "mixed-8p", build: func() *Engine {
			cfg := testConfig(8)
			progs := []*isa.Program{
				lockIncProgram(8, 16, 60),
				lockIncProgram(8, 16, 60),
				atomicIncProgram(0x3000, 4000),
				atomicIncProgram(0x3000, 4000),
				storeStream(0x8000, 4000),
				storeStream(0x20000, 4000),
				lockIncProgram(0x4000, 0x4100, 60),
				atomicIncProgram(0x5000, 4000),
			}
			return &Engine{Cfg: cfg, Progs: progs}
		}},
		{name: "perturb-trunc-4p", build: func() *Engine {
			cfg := testConfig(4)
			cfg.ChunkSize = 200
			progs := make([]*isa.Program, 4)
			for p := range progs {
				progs[p] = atomicIncProgram(64, 1500)
			}
			return &Engine{Cfg: cfg, Progs: progs,
				Perturb: DefaultPerturb(12345), RandomTrunc: DefaultRandomTrunc(777)}
		}},
		{name: "exact-conflicts-4p", build: func() *Engine {
			cfg := testConfig(4)
			cfg.ChunkSize = 150
			progs := make([]*isa.Program, 4)
			for p := range progs {
				progs[p] = lockIncProgram(8, 16, 60)
			}
			return &Engine{Cfg: cfg, Progs: progs, ExactConflicts: true}
		}},
	}
}

// runGoldenScenario runs s with checkpoints every 40 commits appended to
// the observer stream and returns its golden line: the SHA-256 of the
// stream and of Stats, and the final memory hash.
func runGoldenScenario(t *testing.T, s goldenScenario) string {
	t.Helper()
	e := s.build()
	obs := &traceObs{}
	e.Obs = obs
	e.Mem = mem.New()
	e.CheckpointEvery = 40
	e.OnCheckpoint = func(cp Checkpoint) {
		fmt.Fprintf(&obs.b, "K %+v\n", cp) // map fields print sorted
	}
	st := e.Run()
	if !st.Converged {
		t.Fatalf("%s did not converge", s.name)
	}
	hash := func(v string) string {
		sum := sha256.Sum256([]byte(v))
		return hex.EncodeToString(sum[:])
	}
	return fmt.Sprintf("%s stream=%s stats=%s mem=%016x",
		s.name, hash(obs.b.String()), hash(fmt.Sprintf("%+v", st)), e.Mem.Hash())
}

// TestEngineGolden pins every scenario's observer stream, checkpoints,
// Stats and final memory across commits. A diff means the simulated
// execution changed; regenerate with
// `go test ./internal/bulksc -run TestEngineGolden -update` only when
// that is intended.
func TestEngineGolden(t *testing.T) {
	scenarios := goldenScenarios()
	live := make([]string, len(scenarios))
	for i, s := range scenarios {
		t.Run(s.name, func(t *testing.T) { live[i] = runGoldenScenario(t, s) })
	}
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "engine.sha256")
	if *updateGolden {
		for _, l := range live {
			if l == "" {
				t.Fatal("-update needs every scenario: drop the subtest filter")
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
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
	if len(want) != len(scenarios) {
		t.Errorf("golden holds %d scenarios, the test defines %d", len(want), len(scenarios))
	}
	for i, s := range scenarios {
		if live[i] == "" {
			continue // filtered out by -run
		}
		if live[i] != want[s.name] {
			t.Errorf("%s diverges from golden:\n live:   %s\n golden: %s", s.name, live[i], want[s.name])
		}
	}
}

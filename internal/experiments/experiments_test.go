package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"delorean/internal/baseline"
	"delorean/internal/bulksc"
	"delorean/internal/core"
	"delorean/internal/sim"
	"delorean/internal/workload"
)

// The experiment harnesses run at Quick scale in tests: the point here is
// that every harness runs end-to-end, produces structurally sound rows,
// and preserves the paper's headline orderings where they are robust even
// at small scale.

func quick(t *testing.T) Config {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harnesses skipped in -short")
	}
	return Quick()
}

func TestFig6Shape(t *testing.T) {
	c := quick(t)
	rows, err := Fig6(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 groups x 3 chunk sizes
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	byGroup := map[string]map[int]LogSizeRow{}
	for _, r := range rows {
		if byGroup[r.Group] == nil {
			byGroup[r.Group] = map[int]LogSizeRow{}
		}
		byGroup[r.Group][r.ChunkSize] = r
		if r.TotalComp() <= 0 {
			t.Errorf("%s/%d: empty compressed log", r.Group, r.ChunkSize)
		}
		// Headline: OrderOnly logs are far below the RTR reference. Gate
		// on RAW bits here: LZ77 inflates tiny Quick-scale logs (the
		// compressed comparison is recorded at full scale in
		// EXPERIMENTS.md).
		if r.TotalRaw() >= RTRReference {
			t.Errorf("%s/%d: OrderOnly %.2f raw >= RTR reference %.1f", r.Group, r.ChunkSize, r.TotalRaw(), RTRReference)
		}
	}
	// Larger chunks -> smaller PI logs (fewer commits).
	for g, m := range byGroup {
		if m[3000].PIRaw >= m[1000].PIRaw {
			t.Errorf("%s: PI raw did not shrink with chunk size: %v vs %v", g, m[3000].PIRaw, m[1000].PIRaw)
		}
	}
	out := RenderLogSize("Figure 6: OrderOnly", rows)
	if !strings.Contains(out, "SP2-G.M.") {
		t.Fatal("render missing group")
	}
}

func TestFig7PicoLogTiny(t *testing.T) {
	c := quick(t)
	rows, err := Fig7(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PIRaw != 0 {
			t.Errorf("%s/%d: PicoLog has a PI log (%.2f bits)", r.Group, r.ChunkSize, r.PIRaw)
		}
		// Headline: PicoLog's log is tiny (well under 1 bit/proc/kinst at
		// the paper's scale; Quick-scale runs amortize their few CS
		// entries over far fewer instructions, so allow slack).
		if r.TotalRaw() > 4.0 {
			t.Errorf("%s/%d: PicoLog CS log %.2f bits/proc/kinst — not tiny", r.Group, r.ChunkSize, r.TotalRaw())
		}
	}
}

func TestFig8OrderSizeLargerThanOrderOnly(t *testing.T) {
	c := quick(t)
	f6, err := Fig6(c)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig8(c)
	if err != nil {
		t.Fatal(err)
	}
	// Compare SP2-G.M. at chunk 2000: Order&Size must carry more bits.
	get := func(rows []LogSizeRow) LogSizeRow {
		for _, r := range rows {
			if r.Group == "SP2-G.M." && r.ChunkSize == 2000 {
				return r
			}
		}
		t.Fatal("row missing")
		return LogSizeRow{}
	}
	oo, os := get(f6), get(f8)
	if os.TotalRaw() <= oo.TotalRaw() {
		t.Errorf("Order&Size raw %.2f <= OrderOnly %.2f", os.TotalRaw(), oo.TotalRaw())
	}
}

func TestFig9StratificationSaves(t *testing.T) {
	c := quick(t)
	rows, err := Fig9(c)
	if err != nil {
		t.Fatal(err)
	}
	// For the SP2 group, 1 chunk/stratum must be below the unstratified
	// baseline (the paper's ~54% saving).
	var base, one float64
	for _, r := range rows {
		if r.Group != "SP2-G.M." {
			continue
		}
		switch r.ChunksPerStratum {
		case 0:
			base = r.BitsPerKinst
		case 1:
			one = r.NormalizedSize
		}
	}
	if base <= 0 {
		t.Fatal("baseline missing")
	}
	// The paper's ~54% saving needs the full 8-processor scale, where
	// strata span many interleaved commits; at Quick scale commits are
	// bursty and the saving can vanish. Assert structure and bounds only
	// (EXPERIMENTS.md records the full-scale comparison).
	if one <= 0 || one > 4 {
		t.Errorf("stratified(1) normalized size %.2f out of sane bounds", one)
	}
	if s := RenderFig9(rows); !strings.Contains(s, "chunks/stratum") {
		t.Fatal("render broken")
	}
}

func TestFig10Orderings(t *testing.T) {
	c := quick(t)
	rows, err := Fig10(c)
	if err != nil {
		t.Fatal(err)
	}
	gm := rows[len(rows)-1]
	if gm.Workload != "SP2-G.M." {
		t.Fatalf("last row is %q", gm.Workload)
	}
	// Headline shapes (robust even at small scale):
	// OrderOnly ≡ BulkSC: both columns read one recording, which
	// TestDeLoreanRecorderIsPassive shows is the plain run.
	if gm.OrderOnly != gm.BulkSC {
		t.Errorf("OrderOnly %.3f differs from BulkSC %.3f — the columns must share one run", gm.OrderOnly, gm.BulkSC)
	}
	// PicoLog should not meaningfully beat OrderOnly (predefined order
	// costs; slack for small-scale noise — the full-scale gap is in
	// EXPERIMENTS.md).
	if gm.PicoLog > gm.OrderOnly*1.15 {
		t.Errorf("PicoLog %.3f well above OrderOnly %.3f", gm.PicoLog, gm.OrderOnly)
	}
	// SC is slower than RC.
	if gm.SC >= 1.0 {
		t.Errorf("SC %.3f not below RC", gm.SC)
	}
	if s := RenderFig10(rows); !strings.Contains(s, "PicoLog") {
		t.Fatal("render broken")
	}
}

func TestFig11ReplaySlowerThanExecution(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"barnes", "lu"} // keep the test fast
	rows, err := Fig11(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Workload == "SP2-G.M." {
			continue
		}
		if r.Replay <= 0 || r.Execution <= 0 {
			t.Errorf("%s/%s: non-positive speeds", r.Workload, r.Mode)
		}
		// Replay (serial commit, longer arbitration, stalls) should not
		// beat execution meaningfully.
		if r.Replay > r.Execution*1.1 {
			t.Errorf("%s/%s: replay %.3f much faster than execution %.3f", r.Workload, r.Mode, r.Replay, r.Execution)
		}
	}
}

func TestFig12SweepSmall(t *testing.T) {
	c := quick(t)
	c.Scale = 4000
	rows, err := Fig12(c, []int{2, 4}, []int{500, 1000}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%+v: non-positive speedup", r)
		}
	}
	if s := RenderFig12(rows); !strings.Contains(s, "simul-chunks") {
		t.Fatal("render broken")
	}
}

func TestTable6Populated(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"raytrace", "radix", "water-sp"}
	rows, err := Table6(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TokenRoundtrip <= 0 {
			t.Errorf("%s: no token roundtrip measured", r.Workload)
		}
		if r.ProcReadyPct < 0 || r.ProcReadyPct > 100 {
			t.Errorf("%s: proc ready %.1f%%", r.Workload, r.ProcReadyPct)
		}
	}
	if s := RenderTable6(rows); !strings.Contains(s, "token rndtrip") {
		t.Fatal("render broken")
	}
}

func TestBaselinesOrdering(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"barnes", "ocean"}
	rows, err := Baselines(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Headline: DeLorean's logs are smaller than the SC-based
		// recorders' on the same workload.
		if r.OrderOnly >= r.FDR {
			t.Errorf("%s: OrderOnly %.2f >= FDR %.2f", r.Workload, r.OrderOnly, r.FDR)
		}
		if r.PicoLog >= r.OrderOnly {
			t.Errorf("%s: PicoLog %.2f >= OrderOnly %.2f", r.Workload, r.PicoLog, r.OrderOnly)
		}
	}
	if s := RenderBaselines(rows); !strings.Contains(s, "Strata") {
		t.Fatal("render broken")
	}
}

func TestRenderTable5(t *testing.T) {
	out := RenderTable5(sim.Default8())
	for _, want := range []string{"32KB/4-way", "8MB/8-way", "300 cycles", "2 Kbit"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestTSOStudy(t *testing.T) {
	c := quick(t)
	c.Workloads = []string{"barnes", "radix"}
	rows, err := TSOStudy(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 2 workloads + SP2 geomean
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Workload == "SP2-G.M." {
			continue
		}
		if r.TSOSpeed <= 0 || r.SCSpeed <= 0 {
			t.Errorf("%s: non-positive speeds", r.Workload)
		}
		// TSO should be at least as fast as SC (store buffering).
		if r.TSOSpeed < 0.95*r.SCSpeed {
			t.Errorf("%s: TSO %.3f well below SC %.3f", r.Workload, r.TSOSpeed, r.SCSpeed)
		}
	}
	if s := RenderTSO(rows); !strings.Contains(s, "AdvRTR") {
		t.Fatal("render broken")
	}
}

// TestRecordersArePassive pins what the shared SC run relies on: the
// baseline recorders only observe, and each logs the same attached alone
// as next to the others, although they share one line history. For every
// workload at quick scale, a bare SC run and an SC run feeding all four
// recorders must end in deep-equal statistics, and each of the four,
// attached alone, must log exactly the bytes it logs in the four-recorder
// run; so must AdvancedRTR on TSO, alone and next to the four.
func TestRecordersArePassive(t *testing.T) {
	c := quick(t)
	four := func() []baseline.Recorder {
		return []baseline.Recorder{baseline.NewFDR(c.Procs), baseline.NewRTR(c.Procs),
			baseline.NewStrata(c.Procs, false), baseline.NewStrata(c.Procs, true)}
	}
	sameLog := func(name string, alone, shared baseline.Recorder) {
		if alone.Entries() != shared.Entries() || alone.RawBits() != shared.RawBits() ||
			alone.CompressedBits() != shared.CompressedBits() || !bytes.Equal(alone.Log(), shared.Log()) {
			t.Errorf("%s: %s alone logged %d entries, %d raw, %d compressed bits, log %x; shared %d, %d, %d, %x",
				name, alone.Name(), alone.Entries(), alone.RawBits(), alone.CompressedBits(), alone.Log(),
				shared.Entries(), shared.RawBits(), shared.CompressedBits(), shared.Log())
		}
	}
	for _, name := range c.workloads() {
		w := workload.Get(name, c.params())
		bare := sim.NewMachine(c.machine(), sim.SC, w.Progs, w.InitMem(), w.Devs).Run()

		shared := four()
		all := baseline.Run(c.machine(), w.Progs, w.InitMem(), w.Devs, shared...)
		if !reflect.DeepEqual(bare, all) {
			t.Errorf("%s: recorders changed the SC run:\nbare %+v\nobserved %+v", name, bare, all)
		}
		for i, alone := range four() {
			baseline.Run(c.machine(), w.Progs, w.InitMem(), w.Devs, alone)
			sameLog(name, alone, shared[i])
		}

		adv, advAlone := baseline.NewAdvancedRTR(c.Procs, 0), baseline.NewAdvancedRTR(c.Procs, 0)
		baseline.RunModel(c.machine(), sim.TSO, w.Progs, w.InitMem(), w.Devs, append(four(), adv)...)
		baseline.RunModel(c.machine(), sim.TSO, w.Progs, w.InitMem(), w.Devs, advAlone)
		sameLog(name, advAlone, adv)
	}
}

// TestDeLoreanRecorderIsPassive pins what Figure 10's shared OrderOnly
// run relies on: the DeLorean recorder only observes. For every workload
// at quick scale, a plain chunked run and a recording of it must end in
// deep-equal statistics, both for OrderOnly at chunk size 2000 (Figure
// 10's BulkSC column) and for PicoLog's round-robin order at chunk size
// 1000 (the plain PicoLog runs of Figure 12 and Table 6).
func TestDeLoreanRecorderIsPassive(t *testing.T) {
	c := quick(t)
	for _, name := range c.workloads() {
		w := workload.Get(name, c.params())
		for _, tc := range []struct {
			mode      core.Mode
			chunkSize int
			opts      core.RecordOptions
		}{
			{core.OrderOnly, 2000, core.RecordOptions{StratifyMax: 1}},
			{core.PicoLog, 1000, core.RecordOptions{}},
		} {
			cfg := c.machine()
			cfg.ChunkSize = tc.chunkSize
			e := &bulksc.Engine{Cfg: cfg, Progs: w.Progs, Mem: w.InitMem(), Devs: w.Devs}
			if tc.mode == core.PicoLog {
				e.PicoLog = true
				e.Policy = newRR(cfg.NProcs)
			}
			plain := e.Run()
			rec, err := core.Record(cfg, tc.mode, w.Progs, w.Image, w.Devs, tc.opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, tc.mode, err)
			}
			if !reflect.DeepEqual(plain, rec.Stats) {
				t.Errorf("%s %v: recording changed the run:\nplain    %+v\nrecorded %+v", name, tc.mode, plain, rec.Stats)
			}
		}
	}
}

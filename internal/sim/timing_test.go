package sim

import (
	"reflect"
	"testing"

	"delorean/internal/rng"
)

func tcfg() Config {
	c := Default8()
	c.NProcs = 1
	return c
}

func TestChargeALUWidth(t *testing.T) {
	tm := NewCoreTiming(&Config{IssueWidth: 4})
	tm.ChargeALU(8)
	if tm.Clock != 2 {
		t.Fatalf("clock = %d, want 2", tm.Clock)
	}
	tm.ChargeALU(1) // ceil(1/4) = 1
	if tm.Clock != 3 {
		t.Fatalf("clock = %d, want 3", tm.Clock)
	}
	if tm.Seq != 9 {
		t.Fatalf("seq = %d, want 9", tm.Seq)
	}
}

func TestLoadHitDoesNotStall(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	before := tm.Clock
	done := tm.LoadOp(cfg.L1Lat, true, false, 1)
	if tm.Clock != before {
		t.Fatalf("hit stalled the core: %d -> %d", before, tm.Clock)
	}
	if done != before+cfg.L1Lat {
		t.Fatalf("done = %d", done)
	}
}

func TestROBBoundStallsRunahead(t *testing.T) {
	cfg := tcfg()
	cfg.ROB = 8
	tm := NewCoreTiming(&cfg)
	// One outstanding long miss, then run ahead past the ROB bound.
	tm.LoadOp(cfg.MemLat, false, false, 1)
	tm.ChargeALU(16) // Seq now well past ROB over the pending op
	tm.LoadOp(cfg.L1Lat, true, false, 2)
	if tm.Clock < cfg.MemLat {
		t.Fatalf("clock %d: ROB bound did not force waiting for the miss (%d)", tm.Clock, cfg.MemLat)
	}
	if tm.StallCycles == 0 {
		t.Fatal("no stall accounted")
	}
}

func TestMSHRLimitSerializesMisses(t *testing.T) {
	cfg := tcfg()
	cfg.MSHRs = 2
	cfg.ROB = 10000
	tm := NewCoreTiming(&cfg)
	var last uint64
	for i := 0; i < 3; i++ {
		last = tm.LoadOp(cfg.MemLat, false, false, uint8(i))
	}
	// The third miss must start only when an MSHR frees: ~2x latency.
	if last < 2*cfg.MemLat {
		t.Fatalf("third miss done at %d, want >= %d", last, 2*cfg.MemLat)
	}
}

func TestStoreBufferRCOverflowStalls(t *testing.T) {
	cfg := tcfg()
	cfg.StoreBuf = 2
	cfg.MSHRs = 64
	tm := NewCoreTiming(&cfg)
	tm.StoreRC(cfg.MemLat, false)
	tm.StoreRC(cfg.MemLat, false)
	before := tm.Clock
	tm.StoreRC(cfg.MemLat, false) // buffer full: wait for the oldest
	if tm.Clock <= before {
		t.Fatal("full store buffer did not stall")
	}
}

func TestSCChainOrdersCompletions(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	first := tm.StoreSC(cfg.MemLat, false)
	second := tm.LoadOp(cfg.L1Lat, true, true, 1)
	if second <= first {
		t.Fatalf("SC chain violated: load done %d <= store done %d", second, first)
	}
}

func TestRCLoadsCompleteOutOfOrder(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	miss := tm.LoadOp(cfg.MemLat, false, false, 1)
	hit := tm.LoadOp(cfg.L1Lat, true, false, 2)
	if hit >= miss {
		t.Fatalf("RC hit (%d) did not complete before earlier miss (%d)", hit, miss)
	}
}

func TestDrainWaitsForEverything(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	done := tm.LoadOp(cfg.MemLat, false, false, 1)
	tm.StoreRC(cfg.MemLat, false)
	tm.Drain()
	if tm.Clock < done {
		t.Fatalf("drain returned at %d before load done %d", tm.Clock, done)
	}
	if tm.Outstanding() {
		t.Fatal("outstanding ops after drain")
	}
}

func TestDrainStoresLeavesLoads(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	loadDone := tm.LoadOp(cfg.MemLat, false, false, 1)
	tm.StoreRC(cfg.L2Lat, false)
	tm.DrainStores()
	if tm.Clock >= loadDone {
		t.Fatalf("DrainStores waited for the load (%d >= %d)", tm.Clock, loadDone)
	}
}

func TestWaitRegDependence(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	done := tm.LoadOp(cfg.MemLat, false, false, 3)
	tm.WaitReg(3)
	if tm.Clock < done {
		t.Fatalf("WaitReg did not wait for the producing load")
	}
	tm.WaitReg(4) // never written: no wait
}

func TestCompletionHorizonAndReset(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	done := tm.LoadOp(cfg.MemLat, false, false, 1)
	if h := tm.CompletionHorizon(); h != done {
		t.Fatalf("horizon = %d, want %d", h, done)
	}
	tm.Reset()
	if tm.Outstanding() {
		t.Fatal("outstanding after Reset")
	}
	if h := tm.CompletionHorizon(); h != tm.Clock {
		t.Fatalf("horizon after reset = %d, want clock %d", h, tm.Clock)
	}
}

func TestAdvanceToAccountsStall(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	tm.AdvanceTo(100)
	if tm.Clock != 100 || tm.StallCycles != 100 {
		t.Fatalf("clock=%d stalls=%d", tm.Clock, tm.StallCycles)
	}
	tm.AdvanceTo(50) // past: no-op
	if tm.Clock != 100 {
		t.Fatal("AdvanceTo went backwards")
	}
}

// A warmed-up core issues every kind of memory operation, drains and
// resets without allocating: the ROB and store-buffer queues are rings
// that stop growing once they have held their deepest occupancy.
func TestCoreTimingSteadyStateAllocFree(t *testing.T) {
	cfg := tcfg()
	tm := NewCoreTiming(&cfg)
	ops := func() {
		for i := 0; i < 2*cfg.ROB; i++ {
			tm.LoadOp(cfg.MemLat, i%3 == 0, i%5 == 0, uint8(i%16))
			tm.StoreRC(cfg.MemLat, i%2 == 0)
			tm.StoreTSO(cfg.L2Lat, i%3 == 1)
			tm.StoreSC(cfg.L2Lat, i%4 == 0)
			tm.ChargeALU(i % 7)
		}
		tm.Drain()
		tm.LoadOp(cfg.MemLat, false, false, 1)
		tm.StoreRC(cfg.MemLat, false)
		tm.Reset()
	}
	ops() // warm-up: the queues reach their peak size
	if n := testing.AllocsPerRun(20, ops); n != 0 {
		t.Fatalf("steady-state memory ops allocate %.1f times per loop, want 0", n)
	}
}

// Far more operations than the queues' capacity pass through them, so
// the rings wrap many times; the timing must follow the FIFO exactly.
func TestCoreTimingQueuesWrap(t *testing.T) {
	cfg := tcfg()
	cfg.MSHRs = 64
	lat := cfg.MemLat

	// ROB of 4: every fifth back-to-back miss waits for the oldest four
	// to complete, so each group of five costs one miss latency.
	cfg.ROB = 4
	rob := NewCoreTiming(&cfg)
	for i := 0; i < 100; i++ {
		rob.LoadOp(lat, false, false, 1)
	}
	if want := 20 * lat; rob.Clock != want || rob.RobStallCycles != want || rob.StallCycles != want {
		t.Fatalf("ROB: clock %d, rob stall %d, stall %d; want all %d",
			rob.Clock, rob.RobStallCycles, rob.StallCycles, want)
	}
	if rob.Outstanding() {
		t.Fatal("ROB: misses outstanding at the end of a group")
	}
	rob.LoadOp(lat, false, false, 1)
	if h := rob.CompletionHorizon(); h != rob.Clock+lat {
		t.Fatalf("ROB: horizon %d, want %d", h, rob.Clock+lat)
	}

	// Store buffer of 2: every odd store after the first waits for the
	// oldest buffered miss, so each pair costs one miss latency.
	cfg.StoreBuf = 2
	sb := NewCoreTiming(&cfg)
	for i := 0; i < 101; i++ {
		sb.StoreRC(lat, false)
	}
	if want := 50 * lat; sb.Clock != want || sb.SBStallCycles != want || sb.StallCycles != want {
		t.Fatalf("store buffer: clock %d, sb stall %d, stall %d; want all %d",
			sb.Clock, sb.SBStallCycles, sb.StallCycles, want)
	}
	if n := sb.PendingStores(); n != 1 {
		t.Fatalf("store buffer: %d pending stores, want 1", n)
	}
	sb.Drain()
	if want := 51 * lat; sb.Clock != want || sb.DrainStallCycles != lat {
		t.Fatalf("drain: clock %d, drain stall %d; want %d, %d", sb.Clock, sb.DrainStallCycles, want, lat)
	}
}

// The ring keeps FIFO order across wrap-around and across growth while
// wrapped (head not at the start of the buffer).
func TestFIFOWrapAndGrow(t *testing.T) {
	var q fifo[int]
	var ref []int
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%13+1; i++ {
			q.push(next)
			ref = append(ref, next)
			next++
		}
		for i := 0; i < round%7 && len(ref) > 0; i++ {
			if q.front() != ref[0] {
				t.Fatalf("round %d: front %d, want %d", round, q.front(), ref[0])
			}
			q.pop()
			ref = ref[1:]
		}
		if q.len() != len(ref) {
			t.Fatalf("round %d: len %d, want %d", round, q.len(), len(ref))
		}
		for i, v := range ref {
			if q.at(i) != v {
				t.Fatalf("round %d: at(%d) = %d, want %d", round, i, q.at(i), v)
			}
		}
	}
	q.clear()
	if q.len() != 0 {
		t.Fatalf("len after clear = %d", q.len())
	}
}

// reapWouldDrop reports whether a full reap of tm would drop an entry:
// a completed ROB or store-buffer front, or a completed miss.
func reapWouldDrop(tm *CoreTiming) bool {
	if tm.pend.len() > 0 && tm.pend.front().done <= tm.Clock ||
		tm.stores.len() > 0 && tm.stores.front() <= tm.Clock {
		return true
	}
	for _, d := range tm.mshr {
		if d <= tm.Clock {
			return true
		}
	}
	return false
}

// TestReapSkipIsExact checks the invariant that lets reap return at
// once at an unchanged clock: with every latency at least one cycle,
// every completion CoreTiming queues is later than its clock, so while
// the clock has not moved since the last reap, a reap has nothing to
// drop. Random operation sequences, at random geometries and positive
// latencies down to one cycle, check it after every operation, and a
// twin that reaps in full at the start of every operation (its last
// reap's clock forgotten) must end each one in the same state.
func TestReapSkipIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		cfg := tcfg()
		cfg.ROB, cfg.StoreBuf, cfg.MSHRs = r.Range(1, 12), r.Range(1, 6), r.Range(1, 4)
		cfg.L1Lat = uint64(r.Range(1, 3))
		cfg.L2Lat = cfg.L1Lat + uint64(r.Range(0, 20))
		cfg.MemLat = cfg.L2Lat + uint64(r.Range(0, 300))
		lats := []uint64{cfg.L1Lat, cfg.L2Lat, cfg.MemLat}
		tm, twin := NewCoreTiming(&cfg), NewCoreTiming(&cfg)
		skipped := 0
		for step := 0; step < 4000; step++ {
			lat := lats[r.Intn(len(lats))]
			hit := lat == cfg.L1Lat
			op, arg := r.Intn(12), r.Intn(16)
			twin.reapedAt = tm.Clock + 1 // never equal: twin's first reap is full
			if tm.Clock == tm.reapedAt {
				skipped++
			}
			for _, c := range []*CoreTiming{tm, twin} {
				switch op {
				case 0, 1:
					c.LoadOp(lat, hit, arg%3 == 0, uint8(arg))
				case 2:
					c.StoreRC(lat, hit)
				case 3:
					c.StoreTSO(lat, hit)
				case 4:
					c.StoreSC(lat, hit)
				case 5:
					c.ChargeALU(arg)
				case 6:
					c.WaitReg(uint8(arg))
				case 7:
					c.AdvanceTo(c.Clock + uint64(arg*arg))
				case 8:
					c.PendingStores()
					c.Outstanding()
				case 9:
					if arg == 0 {
						c.Drain()
					} else if arg == 1 {
						c.DrainStores()
					}
				case 10:
					if arg == 0 {
						c.Reset() // a squash: the in-flight operations die
					}
				case 11:
					c.Clock += uint64(arg % 3) // an I/O access or squash penalty
				}
			}
			if tm.Clock == tm.reapedAt && reapWouldDrop(tm) {
				t.Fatalf("seed %d, step %d: clock %d unchanged since the last reap, but a reap would drop an entry",
					seed, step, tm.Clock)
			}
			a, b := *tm, *twin
			a.reapedAt, b.reapedAt = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d, step %d (op %d): a timing that skips reaps differs from one that reaps\n skip %+v\n full %+v",
					seed, step, op, a, b)
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no operation started at the clock of the last reap", seed)
		}
	}
}

package arbiter

import (
	"testing"

	"delorean/internal/signature"
)

func sigOf(lines ...uint32) *signature.Sig {
	var s signature.Sig
	for _, l := range lines {
		s.Insert(l)
	}
	return &s
}

func req(proc int, arrive uint64, lines ...uint32) *Request {
	return &Request{
		Proc: proc, Arrive: arrive, Ready: arrive,
		RSig: sigOf(), WSig: sigOf(lines...), WLines: lines,
	}
}

func TestFreeOrderGrantsArrivalOrder(t *testing.T) {
	a := New(30, 15, 4, FreeOrder{})
	a.Submit(10, req(2, 10, 100))
	a.Submit(12, req(0, 12, 200))
	grants := a.TryGrant(12)
	if len(grants) != 2 || grants[0].Proc != 2 || grants[1].Proc != 0 {
		t.Fatalf("grants = %v", procsOf(grants))
	}
	if a.GlobalCommits() != 2 {
		t.Fatalf("commits = %d", a.GlobalCommits())
	}
}

func procsOf(rs []*Request) []int {
	var ps []int
	for _, r := range rs {
		ps = append(ps, r.Proc)
	}
	return ps
}

func TestConflictingCommitsSerialize(t *testing.T) {
	a := New(30, 15, 4, FreeOrder{})
	a.Submit(10, req(0, 10, 500))
	a.Submit(11, req(1, 11, 500)) // writes same line: must wait
	a.Submit(12, req(2, 12, 900)) // disjoint: may pass
	grants := a.TryGrant(12)
	if got := procsOf(grants); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("grants = %v, want [0 2]", got)
	}
	// After the in-flight commit ends, proc 1 goes.
	grants = a.TryGrant(12 + 15)
	if got := procsOf(grants); len(got) != 1 || got[0] != 1 {
		t.Fatalf("second round grants = %v, want [1]", got)
	}
}

// TestWindowOwnsGrantedWriteSet: the engine recycles a chunk, signature
// and written-line buffer included, as soon as it has applied the
// commit, while the commit stays in flight. Overwriting a granted
// request's write set must not change the window's conflict answers, in
// either conflict mode, and entries that survive an expiry must not
// share a written-line buffer with the entry refilled after it.
func TestWindowOwnsGrantedWriteSet(t *testing.T) {
	for _, exact := range []bool{false, true} {
		a := New(30, 100, 4, FreeOrder{})
		a.Exact = exact
		r := req(0, 10, 500)
		a.Submit(10, r)
		if g := a.TryGrant(10); len(g) != 1 {
			t.Fatalf("exact=%v: granted %d, want 1", exact, len(g))
		}
		*r.WSig = *sigOf(900)
		r.WLines[0] = 900
		a.Submit(11, req(1, 11, 500)) // conflicts with the write set as granted
		a.Submit(12, req(2, 12, 900)) // conflicts only with the overwritten one
		if got := procsOf(a.TryGrant(12)); len(got) != 1 || got[0] != 2 {
			t.Fatalf("exact=%v: grants = %v, want [2]", exact, got)
		}
		// At 111 the first commit has expired: proc 1 goes, and its entry
		// refills the slot the expired one left.
		if got := procsOf(a.TryGrant(111)); len(got) != 1 || got[0] != 1 {
			t.Fatalf("exact=%v: grants after expiry = %v, want [1]", exact, got)
		}
		if len(a.inflight) != 2 || &a.inflight[0].wlines[0] == &a.inflight[1].wlines[0] {
			t.Fatalf("exact=%v: in-flight entries share a written-line buffer", exact)
		}
		if w := a.inflight[0].wlines; len(w) != 1 || w[0] != 900 {
			t.Fatalf("exact=%v: surviving entry's lines = %v, want [900]", exact, w)
		}
	}
}

func TestMaxConcurrencyBound(t *testing.T) {
	a := New(30, 100, 2, FreeOrder{})
	for p := 0; p < 4; p++ {
		a.Submit(uint64(10+p), req(p, uint64(10+p), uint32(100*p+100)))
	}
	grants := a.TryGrant(20)
	if len(grants) != 2 {
		t.Fatalf("granted %d with MaxConcur=2", len(grants))
	}
	if g := a.TryGrant(20); len(g) != 0 {
		t.Fatalf("over-granted: %v", procsOf(g))
	}
	grants = a.TryGrant(121) // first two expired
	if len(grants) != 2 {
		t.Fatalf("after expiry granted %d", len(grants))
	}
}

func TestRoundRobinOrder(t *testing.T) {
	rr := NewRoundRobin(3)
	a := New(30, 5, 4, rr)
	// Requests arrive out of token order.
	a.Submit(10, req(2, 10, 100))
	a.Submit(11, req(1, 11, 200))
	if g := a.TryGrant(11); len(g) != 0 {
		t.Fatalf("granted %v before token holder requested", procsOf(g))
	}
	a.Submit(12, req(0, 12, 300))
	g := a.TryGrant(12)
	if got := procsOf(g); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("grants = %v, want [0 1 2]", got)
	}
}

func TestRoundRobinSkipsDone(t *testing.T) {
	rr := NewRoundRobin(3)
	a := New(30, 5, 4, rr)
	rr.MarkDone(1)
	a.Submit(10, req(0, 10, 100))
	a.Submit(11, req(2, 11, 200))
	g := a.TryGrant(11)
	if got := procsOf(g); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("grants = %v, want [0 2]", got)
	}
}

func TestRoundRobinUrgentBypass(t *testing.T) {
	rr := NewRoundRobin(3)
	a := New(30, 5, 4, rr)
	r := req(2, 10, 100)
	r.Urgent = true
	a.Submit(10, r)
	g := a.TryGrant(10)
	if len(g) != 1 || g[0].Proc != 2 {
		t.Fatalf("urgent not granted: %v", procsOf(g))
	}
	// Token is still at 0.
	if head, ok := rr.Head(0); !ok || head != 0 {
		t.Fatalf("token moved on urgent grant: %d", head)
	}
}

func TestRoundRobinTokenStats(t *testing.T) {
	rr := NewRoundRobin(2)
	a := New(30, 5, 4, rr)
	// Token sits at proc 0 from t=0; proc 0's chunk completes at 50 and
	// is granted at 100: an unready token acquisition (wait-complete 50).
	r0 := req(0, 100, 100)
	r0.Ready = 50
	a.Submit(100, r0)
	a.TryGrant(100)
	// Token reaches proc 1 at 100; its chunk completes at 300: another
	// unready acquisition (wait-complete 200).
	r1 := req(1, 300, 200)
	r1.Ready = 300
	a.Submit(300, r1)
	a.TryGrant(300)
	// Token reaches proc 0 again at 300; its next chunk was already
	// ready at 250: a ready acquisition granted at 320 (wait-token 70).
	r2 := req(0, 320, 300)
	r2.Ready = 250
	a.Submit(320, r2)
	a.TryGrant(320)

	ts := rr.Tokens()
	if want := 1.0 / 3.0; ts.ProcReadyFrac < want-1e-9 || ts.ProcReadyFrac > want+1e-9 {
		t.Fatalf("ProcReadyFrac = %g, want 1/3", ts.ProcReadyFrac)
	}
	if ts.WaitTokenAvg != 70 { // 320-250
		t.Fatalf("WaitTokenAvg = %g, want 70", ts.WaitTokenAvg)
	}
	if ts.WaitCompleteAvg != 125 { // (50+200)/2
		t.Fatalf("WaitCompleteAvg = %g, want 125", ts.WaitCompleteAvg)
	}
	// Token arrivals: p1@100, p0@300, p1@320 — one full circulation for
	// p1 takes 320-100 = 220 cycles.
	if ts.RoundtripAvg != 220 {
		t.Fatalf("RoundtripAvg = %g, want 220", ts.RoundtripAvg)
	}
}

func TestLogOrderEnforcesSequence(t *testing.T) {
	lo := NewLogOrder([]int{1, 0, 1})
	a := New(30, 5, 4, lo)
	a.Submit(10, req(0, 10, 100))
	if g := a.TryGrant(10); len(g) != 0 {
		t.Fatalf("granted out of log order: %v", procsOf(g))
	}
	a.Submit(11, req(1, 11, 200))
	g := a.TryGrant(11)
	if got := procsOf(g); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("grants = %v, want [1 0]", got)
	}
	// Proc 1's previous commit is still in flight at t=12 (same-processor
	// commits serialize in program order); it lands after expiry.
	a.Submit(12, req(1, 12, 300))
	if g := a.TryGrant(12); len(g) != 0 {
		t.Fatalf("same-proc commit overlapped: %v", procsOf(g))
	}
	if g := a.TryGrant(17); len(g) != 1 || g[0].Proc != 1 {
		t.Fatal("final log entry not granted")
	}
	if lo.Consumed() != 3 {
		t.Fatalf("Consumed = %d", lo.Consumed())
	}
}

func TestSplitContinuationBypassesLog(t *testing.T) {
	lo := NewLogOrder([]int{0, 1})
	a := New(30, 5, 4, lo)
	a.Submit(10, req(0, 10, 100))
	a.TryGrant(10)
	// The split piece of proc 0's chunk commits without a log entry,
	// immediately after its first piece finishes propagating.
	split := req(0, 11, 150)
	split.Split = true
	a.Submit(11, split)
	g := a.TryGrant(16)
	if len(g) != 1 || !g[0].Split {
		t.Fatalf("split continuation not granted: %v", procsOf(g))
	}
	if lo.Consumed() != 1 {
		t.Fatalf("split consumed a log entry: %d", lo.Consumed())
	}
}

func TestRoundRobinReplaySlots(t *testing.T) {
	rp := NewRoundRobinReplay(2, []SlotRef{{Slot: 1, Proc: 2}}) // DMA at slot 1
	a := New(30, 5, 4, rp)
	a.Submit(10, req(0, 10, 100))
	a.Submit(10, req(1, 10, 200))
	g := a.TryGrant(10)
	// Only proc 0 (slot 0); slot 1 is pinned to the DMA.
	if got := procsOf(g); len(got) != 1 || got[0] != 0 {
		t.Fatalf("grants = %v, want [0]", got)
	}
	dma := req(2, 12, 900)
	dma.Urgent = true
	a.Submit(12, dma)
	g = a.TryGrant(12)
	if got := procsOf(g); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("grants = %v, want [2 1] (DMA then token)", got)
	}
}

func TestWithdraw(t *testing.T) {
	a := New(30, 5, 4, FreeOrder{})
	r := req(0, 10, 100)
	r.Tag = "dead"
	a.Submit(10, r)
	a.Withdraw(10, func(tag any) bool { return tag == "dead" })
	if g := a.TryGrant(10); len(g) != 0 {
		t.Fatal("withdrawn request granted")
	}
	if a.Pending() != 0 {
		t.Fatalf("Pending = %d", a.Pending())
	}
}

func TestNextEventAfter(t *testing.T) {
	a := New(30, 50, 1, FreeOrder{})
	a.Submit(10, req(0, 10, 100))
	a.TryGrant(10) // inflight until 60
	a.Submit(20, req(1, 25, 200))
	next, ok := a.NextEventAfter(20)
	if !ok || next != 25 {
		t.Fatalf("next = %d,%v, want 25", next, ok)
	}
	next, ok = a.NextEventAfter(30)
	if !ok || next != 60 {
		t.Fatalf("next = %d,%v, want 60", next, ok)
	}
	if _, ok := a.NextEventAfter(1000); ok {
		t.Fatal("phantom future event")
	}
}

func TestStatsIntegrals(t *testing.T) {
	a := New(30, 10, 4, FreeOrder{})
	a.Submit(0, req(0, 0, 100))
	// Request sits ready from t=0 to t=100.
	a.TryGrant(100)
	st := a.StatsAt(200)
	if st.Grants != 1 {
		t.Fatalf("grants = %d", st.Grants)
	}
	if st.ReadyProcsAvg <= 0.4 || st.ReadyProcsAvg >= 0.6 {
		t.Fatalf("ReadyProcsAvg = %g, want ~0.5", st.ReadyProcsAvg)
	}
	if st.ActualCommitAvg != 1 {
		t.Fatalf("ActualCommitAvg = %g, want 1", st.ActualCommitAvg)
	}
}

func TestTimeMovingBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := New(30, 5, 4, FreeOrder{})
	a.Submit(100, req(0, 100, 1))
	a.Submit(50, req(1, 50, 2))
}

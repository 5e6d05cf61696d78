package core

import (
	"testing"

	"delorean/internal/bulksc"
	"delorean/internal/dlog"
)

// A replay reads chunk truncations and interrupts straight from the
// logs by sequence number: every logged entry is found with its values,
// and a sequence number between, before or after the entries is not.
func TestLogSourceLookups(t *testing.T) {
	rec := &Recording{Mode: OrderOnly, NProcs: 2, ChunkSize: 100}
	cs := dlog.NewCSLog(100)
	cs.Append(3, 40)
	cs.Append(9, 70)
	cs.Append(10, 5)
	intr := &dlog.IntrLog{}
	intr.Append(dlog.IntrEntry{SeqID: 2, Type: 1, Data: 0xbeef})
	intr.Append(dlog.IntrEntry{SeqID: 90, Type: 3, Data: 7, Urgent: true})
	rec.CS = []*dlog.CSLog{dlog.NewCSLog(100), cs}
	rec.Intr = []*dlog.IntrLog{{}, intr}
	src := &logSource{rec: rec}

	for seq, want := range map[uint64]int{3: 40, 9: 70, 10: 5} {
		if got, ok := src.Truncation(1, seq); !ok || got != want {
			t.Errorf("Truncation(1, %d) = %d, %v; want %d", seq, got, ok, want)
		}
	}
	for _, seq := range []uint64{0, 4, 11, 1 << 40} {
		if _, ok := src.Truncation(1, seq); ok {
			t.Errorf("Truncation(1, %d) found an entry", seq)
		}
	}
	if _, ok := src.Truncation(0, 3); ok {
		t.Error("Truncation read another processor's log")
	}
	if typ, data, urgent, ok := src.InterruptAt(1, 90); !ok || typ != 3 || data != 7 || !urgent {
		t.Errorf("InterruptAt(1, 90) = %d, %d, %v, %v", typ, data, urgent, ok)
	}
	if typ, data, urgent, ok := src.InterruptAt(1, 2); !ok || typ != 1 || data != 0xbeef || urgent {
		t.Errorf("InterruptAt(1, 2) = %d, %d, %v, %v", typ, data, urgent, ok)
	}
	for _, seq := range []uint64{0, 3, 89, 91} {
		if _, _, _, ok := src.InterruptAt(1, seq); ok {
			t.Errorf("InterruptAt(1, %d) found an entry", seq)
		}
	}

	// Order&Size: every chunk's size is a truncation, read by index.
	rec.Mode = OrderSize
	sizes := dlog.NewSizeLog(100)
	sizes.Append(100)
	sizes.Append(17)
	rec.Sizes = []*dlog.SizeLog{dlog.NewSizeLog(100), sizes}
	if got, ok := src.Truncation(1, 1); !ok || got != 17 {
		t.Errorf("Order&Size Truncation(1, 1) = %d, %v; want 17", got, ok)
	}
	if _, ok := src.Truncation(1, 2); ok {
		t.Error("Order&Size Truncation past the size log found an entry")
	}
}

// The observer checks each logical commit as it applies and keeps the
// divergence at the lowest slot, whatever order it finds them in: an
// order divergence is found when its commit applies, a size divergence
// only when its chunk closes, possibly later. Split pieces fold into
// their chunk's size; stratified replay checks nothing.
func TestReplayObserverKeepsEarliestDivergence(t *testing.T) {
	rec := &Recording{Mode: OrderSize, NProcs: 2, ChunkSize: 10}
	setPI(rec, []int{0, 1, 0, 2, 1, 0})
	rec.Sizes = make([]*dlog.SizeLog, 2)
	for p, sizes := range [][]int{{10, 10, 10}, {10, 10}} {
		rec.Sizes[p] = dlog.NewSizeLog(10)
		for _, s := range sizes {
			rec.Sizes[p].Append(s)
		}
	}
	commit := func(o *replayObserver, proc int, seq uint64, size int, split bool) {
		o.OnCommit(bulksc.CommitEvent{Proc: proc, SeqID: seq, Size: size, Split: split})
	}
	verdict := func(o *replayObserver) *DivergenceError {
		return rec.divergence(o, ReplayResult{Fingerprint: 1}, 2, nil, 0)
	}
	cases := []struct {
		name      string
		feed      func(o *replayObserver)
		slot      int64
		kind      string
		proc, seq int
	}{
		// Slot 1's short chunk closes only at the end of the run, after
		// slot 4's order divergence was found.
		{"size-found-last", func(o *replayObserver) {
			commit(o, 0, 0, 10, false)
			commit(o, 1, 0, 7, false)
			commit(o, 0, 1, 10, false)
			o.OnDMACommit(3, 0, nil)
			commit(o, 0, 2, 10, false)
		}, 1, "size", 1, 0},
		// Slot 1's order divergence is found first; the short chunk at
		// slot 2 closes later and must not replace it.
		{"order-found-first", func(o *replayObserver) {
			commit(o, 0, 0, 10, false)
			commit(o, 0, 1, 10, false)
			commit(o, 0, 2, 7, false)
		}, 1, "order", 0, 1},
		// Split pieces merge to the logged size; the DMA slot matches.
		{"split-pieces", func(o *replayObserver) {
			commit(o, 0, 0, 6, false)
			commit(o, 0, 0, 4, true)
			commit(o, 1, 0, 3, false)
			commit(o, 1, 0, 7, true)
			commit(o, 0, 1, 10, false)
			o.OnDMACommit(3, 0, nil)
			commit(o, 1, 1, 9, false)
		}, 4, "size", 1, 1},
		{"past-the-log", func(o *replayObserver) {
			commit(o, 0, 0, 10, false)
			commit(o, 1, 0, 10, false)
			commit(o, 0, 1, 10, false)
			o.OnDMACommit(3, 0, nil)
			commit(o, 1, 1, 10, false)
			commit(o, 0, 2, 10, false)
			commit(o, 0, 3, 10, false)
		}, 6, "order", 0, 3},
	}
	for _, tc := range cases {
		o := newReplayObserver(rec, 0, true)
		tc.feed(o)
		d := verdict(o)
		if d == nil || d.Kind != tc.kind || d.Slot != tc.slot || d.Proc != tc.proc || d.SeqID != int64(tc.seq) {
			t.Errorf("%s: divergence %+v, want %s at slot %d, core %d, chunk %d", tc.name, d, tc.kind, tc.slot, tc.proc, tc.seq)
		}
		stratified := newReplayObserver(rec, 0, false)
		tc.feed(stratified)
		if d := verdict(stratified); d == nil || d.Kind != "state" {
			t.Errorf("%s: stratified replay checked the logs: %+v", tc.name, d)
		}
	}
}

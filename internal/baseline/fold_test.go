package baseline

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"delorean/internal/isa"
	"delorean/internal/rng"
	"delorean/internal/sim"
)

// accessStream generates a seeded global access stream in the shape the
// machines emit: every processor reads, writes and read-modify-writes a
// few shared lines, some reads bypass buffered stores, and from time to
// time a group of processors settles into spin-waits, each re-reading one
// word many times while nobody writes.
func accessStream(seed uint64, nprocs, n int) []sim.AccessEvent {
	r := rng.New(seed)
	memory := map[uint32]uint64{}
	memOps := make([]uint64, nprocs)
	insts := make([]uint64, nprocs)
	var t uint64
	var evs []sim.AccessEvent
	emit := func(p int, addr uint32, read, write, pending bool) {
		t += uint64(r.Intn(3))
		memOps[p]++
		insts[p] += 1 + uint64(r.Intn(6))
		old := memory[addr]
		if write {
			memory[addr] = old + 1 + uint64(r.Intn(3))
		}
		evs = append(evs, sim.AccessEvent{
			Proc: p, Time: t, Line: isa.LineOf(addr), Addr: addr,
			Read: read, Write: write, MemOp: memOps[p], Inst: insts[p],
			Value: old, StoresPending: pending, Count: 1,
		})
	}
	addrOf := func() uint32 { return uint32(r.Intn(6)*isa.LineWords + r.Intn(2)) }
	for len(evs) < n {
		if r.Bool(0.1) {
			// A spin-wait window: the waiting processors' first reads, then
			// a long run of re-reads with no write in between.
			var waiters []int
			spinAddr := map[int]uint32{}
			for p := 0; p < nprocs; p++ {
				if r.Bool(0.6) {
					waiters = append(waiters, p)
					spinAddr[p] = addrOf()
					emit(p, spinAddr[p], true, false, r.Bool(0.3))
				}
			}
			if len(waiters) == 0 {
				continue
			}
			for k := r.Intn(60); k > 0; k-- {
				p := waiters[r.Intn(len(waiters))]
				emit(p, spinAddr[p], true, false, false)
			}
			continue
		}
		p := r.Intn(nprocs)
		switch r.Intn(4) {
		case 0, 1:
			emit(p, addrOf(), true, false, r.Bool(0.2))
		case 2:
			emit(p, addrOf(), false, true, false)
		default:
			emit(p, addrOf(), true, true, false)
		}
	}
	return evs
}

// foldRepeats folds each maximal stretch of repeated reads into one
// counted event per processor, as a spin skip emits them: a read repeats
// its processor's previous access if both are reads without
// StoresPending of the same address returning the same value, with no
// write to the line in between. Each stretch's events come out in (Time,
// Proc) order where the stretch ends.
func foldRepeats(evs []sim.AccessEvent) []sim.AccessEvent {
	var out []sim.AccessEvent
	last := map[int]int{}         // processor -> index of its last access
	lastWrite := map[uint32]int{} // line -> index of its last write
	stretch := map[int]*sim.AccessEvent{}
	flush := func() {
		var fs []sim.AccessEvent
		for _, e := range stretch {
			fs = append(fs, *e)
		}
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Time != fs[j].Time {
				return fs[i].Time < fs[j].Time
			}
			return fs[i].Proc < fs[j].Proc
		})
		out = append(out, fs...)
		clear(stretch)
	}
	plainRead := func(e sim.AccessEvent) bool { return e.Read && !e.Write && !e.StoresPending }
	for i, e := range evs {
		j, seen := last[e.Proc]
		w, written := lastWrite[e.Line]
		repeat := seen && plainRead(e) && plainRead(evs[j]) && evs[j].Addr == e.Addr &&
			evs[j].Value == e.Value && (!written || w < j)
		last[e.Proc] = i
		if e.Write {
			lastWrite[e.Line] = i
		}
		if !repeat {
			flush()
			out = append(out, e)
			continue
		}
		if f := stretch[e.Proc]; f != nil {
			n := f.Count
			*f = e
			f.Count = n + 1
		} else {
			f := e
			stretch[e.Proc] = &f
		}
	}
	flush()
	return out
}

// TestRecordersFoldCountedReads feeds every recorder a seeded access
// stream once as it is and once with its repeated reads folded into
// counted events, the form the machines use for skipped spin-waits. Both
// must give the same logs.
func TestRecordersFoldCountedReads(t *testing.T) {
	const nprocs = 4
	for seed := uint64(1); seed <= 20; seed++ {
		evs := accessStream(seed, nprocs, 4000)
		folded := foldRepeats(evs)
		var reads, counted uint64
		for _, e := range folded {
			reads += e.Count
			if e.Count > 1 {
				counted++
			}
		}
		if reads != uint64(len(evs)) || counted == 0 {
			t.Fatalf("seed %d: folded %d events into %d standing for %d accesses, %d counted",
				seed, len(evs), len(folded), reads, counted)
		}
		mk := func() []Recorder {
			return []Recorder{NewFDR(nprocs), NewRTR(nprocs), NewStrata(nprocs, false),
				NewStrata(nprocs, true), NewAdvancedRTR(nprocs, 0)}
		}
		plain, fold := mk(), mk()
		plainObs, foldObs := newObserver(nprocs, plain), newObserver(nprocs, fold)
		for _, e := range evs {
			plainObs.OnAccess(e)
		}
		for _, e := range folded {
			foldObs.OnAccess(e)
		}
		for i, a := range plain {
			b := fold[i]
			got := fmt.Sprint(b.Entries(), b.RawBits(), b.CompressedBits())
			want := fmt.Sprint(a.Entries(), a.RawBits(), a.CompressedBits())
			la, lb := a.Log(), b.Log()
			if got != want || !bytes.Equal(la, lb) {
				t.Errorf("seed %d %s: folded stream gives entries/raw/compressed %s, log %x; stepped %s, log %x",
					seed, a.Name(), got, lb, want, la)
			}
			if a.Entries() == 0 {
				t.Errorf("seed %d %s: empty log", seed, a.Name())
			}
		}
	}
}

// TestHistoryRecycled feeds one access stream to every recorder over a
// recycled line history and over a fresh one, at processor counts that
// change from run to run: the logs must be identical, so a recycled
// history reuses reader slices only at the run's processor count, and
// cleared. Each run first touches more lines than the run before, so a
// run reaches states that a run at another processor count left.
func TestHistoryRecycled(t *testing.T) {
	feed := func(h *history, nprocs int, seed uint64, fresh int) []string {
		recs := []Recorder{NewFDR(nprocs), NewRTR(nprocs), NewStrata(nprocs, false),
			NewStrata(nprocs, true), NewAdvancedRTR(nprocs, 0)}
		o := &observer{hist: h, recs: recs}
		evs := accessStream(seed, nprocs, 4000)
		for k := 0; k < fresh; k++ {
			line := uint32(1<<22 + k)
			for i, p := range []int{k % nprocs, nprocs - 1, (k + 1) % nprocs} {
				evs = append(evs, sim.AccessEvent{Proc: p, Time: uint64(1e6 + 3*k + i), Line: line,
					Addr: line * isa.LineWords, Read: i < 2, Write: i == 2, MemOp: uint64(1e6 + k), Inst: uint64(1e6 + k), Count: 1})
			}
		}
		for _, e := range evs {
			o.OnAccess(e)
		}
		var logs []string
		for _, r := range recs {
			logs = append(logs, fmt.Sprintf("%s %d %x", r.Name(), r.Entries(), r.Log()))
		}
		return logs
	}
	h := newHistory(8)
	for i, nprocs := range []int{8, 4, 8, 8, 3, 8} {
		seed, fresh := uint64(i%2+1), 300*i
		want := feed(&history{nprocs: nprocs}, nprocs, seed, fresh)
		histories.Put(h)
		if h = newHistory(nprocs); h.index.Len() != 0 || len(h.lines) != 0 {
			t.Fatalf("run %d: recycled history holds %d lines", i, len(h.lines))
		}
		if got := feed(h, nprocs, seed, fresh); !slices.Equal(got, want) {
			t.Fatalf("run %d (%d procs): recycled history gives logs\n%q\nfresh\n%q", i, nprocs, got, want)
		}
	}
}

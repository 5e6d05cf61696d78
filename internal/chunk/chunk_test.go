package chunk

import (
	"testing"

	"delorean/internal/isa"
	"delorean/internal/signature"
)

func TestWriteBufferForwarding(t *testing.T) {
	c := New(0, 0, isa.ThreadState{}, 2000)
	c.Write(100, 7)
	if v, ok := c.Load(100); !ok || v != 7 {
		t.Fatalf("Load = %d,%v", v, ok)
	}
	c.Write(100, 9)
	if v, _ := c.Load(100); v != 9 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if _, ok := c.Load(101); ok {
		t.Fatal("phantom buffered value")
	}
}

func TestWriteNewLineDetection(t *testing.T) {
	c := New(0, 0, isa.ThreadState{}, 2000)
	if !c.Write(0, 1) { // line 0
		t.Fatal("first write not a new line")
	}
	if c.Write(1, 2) { // same line (4-word lines)
		t.Fatal("same-line write reported as new line")
	}
	if !c.Write(4, 3) { // line 1
		t.Fatal("next-line write not new")
	}
	if c.NumWLines() != 2 {
		t.Fatalf("NumWLines = %d, want 2", c.NumWLines())
	}
}

func TestFootprints(t *testing.T) {
	c := New(0, 0, isa.ThreadState{}, 2000)
	c.NoteRead(5)
	c.Write(40, 1) // line 10
	if !c.ReadLine(5) || c.ReadLine(10) {
		t.Fatal("read footprint wrong")
	}
	if !c.WroteLine(10) || c.WroteLine(5) {
		t.Fatal("write footprint wrong")
	}
	if !c.RSig.MayContain(5) || !c.WSig.MayContain(10) {
		t.Fatal("signatures not updated")
	}
}

func TestConflictExactVsSignature(t *testing.T) {
	reader := New(0, 0, isa.ThreadState{}, 2000)
	reader.NoteRead(77)

	var w signature.Sig
	w.Insert(77)
	if !reader.ConflictsWith(&w, []uint32{77}, true) {
		t.Fatal("exact conflict missed")
	}
	if !reader.ConflictsWith(&w, []uint32{77}, false) {
		t.Fatal("signature conflict missed (false negative!)")
	}

	var w2 signature.Sig
	w2.Insert(9999)
	if reader.ConflictsWith(&w2, []uint32{9999}, true) {
		t.Fatal("exact mode reported phantom conflict")
	}
}

func TestWriteWriteConflict(t *testing.T) {
	c := New(0, 0, isa.ThreadState{}, 2000)
	c.Write(77*isa.LineWords, 1)
	var w signature.Sig
	w.Insert(77)
	if !c.ConflictsWith(&w, []uint32{77}, true) || !c.ConflictsWith(&w, []uint32{77}, false) {
		t.Fatal("WAW conflict missed")
	}
}

func TestApplyOrderAndValues(t *testing.T) {
	c := New(0, 0, isa.ThreadState{}, 2000)
	c.Write(10, 1)
	c.Write(20, 2)
	c.Write(10, 3) // overwrite
	var got []uint32
	vals := map[uint32]uint64{}
	c.Apply(func(a uint32, v uint64) {
		got = append(got, a)
		vals[a] = v
	})
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("apply order = %v", got)
	}
	if vals[10] != 3 || vals[20] != 2 {
		t.Fatalf("apply values = %v", vals)
	}
	if c.StoreCount() != 2 {
		t.Fatalf("StoreCount = %d", c.StoreCount())
	}
}

func TestCheckpointIsolation(t *testing.T) {
	var st isa.ThreadState
	st.Reg[3] = 42
	c := New(1, 5, st, 1000)
	st.Reg[3] = 99 // later mutation must not affect the checkpoint
	if c.Checkpoint.Reg[3] != 42 {
		t.Fatal("checkpoint aliases live state")
	}
}

func TestTruncReasonClassification(t *testing.T) {
	det := []TruncReason{SizeLimit, Uncached, Halt, CSReplay}
	for _, r := range det {
		if r.NonDeterministic() {
			t.Errorf("%v misclassified as non-deterministic", r)
		}
	}
	for _, r := range []TruncReason{Overflow, Collision} {
		if !r.NonDeterministic() {
			t.Errorf("%v misclassified as deterministic", r)
		}
	}
}

func TestTruncReasonStrings(t *testing.T) {
	for r := SizeLimit; r <= CSReplay; r++ {
		if r.String() == "trunc(?)" {
			t.Errorf("reason %d missing name", r)
		}
	}
}

// TestReuseForgetsFootprint reuses a chunk as the engine's free lists
// do: the reused chunk must report nothing the old one buffered, read or
// wrote, must rebuild its own footprint from scratch, and must carry a
// new life count.
func TestReuseForgetsFootprint(t *testing.T) {
	c := New(3, 0, isa.ThreadState{}, 2000)
	var addrs []uint32
	for i := uint32(0); i < 200; i++ {
		a := i*37 + i*i*4099
		addrs = append(addrs, a)
		c.Write(a, uint64(i)+1)
		c.NoteRead(isa.LineOf(a) + 1)
		c.NoteFill(isa.LineOf(a), 1)
	}
	c.Completed, c.Restarts, c.Urgent = true, 4, true
	life := c.Life()
	var st isa.ThreadState
	st.Reg[2] = 7
	c.Reuse(1, st, 500)
	if c.Life() != life+1 {
		t.Fatalf("Life = %d after reuse, want %d", c.Life(), life+1)
	}
	fresh := New(3, 1, st, 500)
	if c.Proc != fresh.Proc || c.SeqID != fresh.SeqID || c.Checkpoint != fresh.Checkpoint ||
		c.Target != fresh.Target || c.Completed || c.Restarts != 0 || c.Urgent ||
		c.RSig != fresh.RSig || c.WSig != fresh.WSig {
		t.Fatalf("reused chunk keeps old state: %+v", *c)
	}
	for _, a := range addrs {
		line := isa.LineOf(a)
		if _, ok := c.Load(a); ok {
			t.Fatalf("recycled chunk buffers a value for %#x", a)
		}
		if c.WroteLine(line) || c.ReadLine(line) || c.ReadLine(line+1) {
			t.Fatalf("recycled chunk reports line %#x in its footprint", line)
		}
	}
	if c.StoreCount() != 0 || c.NumWLines() != 0 || len(c.Fills()) != 0 {
		t.Fatalf("recycled chunk starts with %d stores, %d lines, %d fills",
			c.StoreCount(), c.NumWLines(), len(c.Fills()))
	}
	if !c.Write(addrs[3], 9) || !c.WroteLine(isa.LineOf(addrs[3])) {
		t.Fatal("recycled chunk lost a fresh write")
	}
	if v, ok := c.Load(addrs[3]); !ok || v != 9 {
		t.Fatalf("recycled chunk Load = %d,%v, want 9,true", v, ok)
	}
}

package cache

import (
	"testing"
	"testing/quick"

	"delorean/internal/isa"
	"delorean/internal/rng"
)

func newSmall() *Cache {
	// 4 sets x 2 ways x 32B lines = 256 bytes.
	return New(256, 2)
}

func TestGeometry(t *testing.T) {
	c := New(32*1024, 4) // paper L1
	if c.Ways() != 4 {
		t.Errorf("ways = %d", c.Ways())
	}
	if c.NumSets() != 256 {
		t.Errorf("sets = %d, want 256", c.NumSets())
	}
	c2 := New(8*1024*1024, 8) // paper L2
	if c2.NumSets() != 32768 {
		t.Errorf("L2 sets = %d, want 32768", c2.NumSets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range []struct{ bytes, ways int }{
		{96, 2},                          // 3 sets: not a power of two
		{2 * maxSets * isa.LineBytes, 1}, // more sets than a 16-bit index numbers
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", g.bytes, g.ways)
				}
			}()
			New(g.bytes, g.ways)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := newSmall()
	if c.Access(100) {
		t.Fatal("hit on empty cache")
	}
	c.Install(100)
	if !c.Access(100) {
		t.Fatal("miss after install")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall() // 2 ways
	// Lines 0, 4, 8 all map to set 0 (4 sets).
	c.Install(0)
	c.Install(4)
	evicted, did := c.Install(8)
	if !did || evicted != 0 {
		t.Fatalf("evicted %d (did=%v), want 0", evicted, did)
	}
	if c.Contains(0) {
		t.Fatal("evicted line still present")
	}
	if !c.Contains(4) || !c.Contains(8) {
		t.Fatal("resident lines missing")
	}
}

func TestAccessRefreshesLRU(t *testing.T) {
	c := newSmall()
	c.Install(0)
	c.Install(4)
	c.Access(0) // 0 becomes MRU; 4 is now LRU
	evicted, did := c.Install(8)
	if !did || evicted != 4 {
		t.Fatalf("evicted %d, want 4 after refreshing 0", evicted)
	}
}

func TestInstallExistingIsAccess(t *testing.T) {
	c := newSmall()
	c.Install(0)
	if _, did := c.Install(0); did {
		t.Fatal("re-install evicted something")
	}
}

func TestInvalidate(t *testing.T) {
	c := newSmall()
	c.Install(12)
	if !c.Invalidate(12) {
		t.Fatal("Invalidate missed resident line")
	}
	if c.Contains(12) {
		t.Fatal("line survives invalidation")
	}
	if c.Invalidate(12) {
		t.Fatal("Invalidate hit absent line")
	}
}

func TestFlush(t *testing.T) {
	c := newSmall()
	c.Install(1)
	c.Install(2)
	c.Flush()
	if c.Contains(1) || c.Contains(2) {
		t.Fatal("lines survive flush")
	}
}

func TestSetMapping(t *testing.T) {
	c := newSmall() // 4 sets
	if c.SetOf(0) != 0 || c.SetOf(1) != 1 || c.SetOf(5) != 1 || c.SetOf(7) != 3 {
		t.Fatal("SetOf mapping wrong")
	}
}

func TestDisjointSetsDontInterfere(t *testing.T) {
	c := newSmall()
	for line := uint32(0); line < 8; line++ { // 2 lines per set exactly
		c.Install(line)
	}
	for line := uint32(0); line < 8; line++ {
		if !c.Contains(line) {
			t.Fatalf("line %d evicted though its set had room", line)
		}
	}
}

// Property: occupancy per set never exceeds associativity, and a just-
// installed line is always present.
func TestQuickInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		c := newSmall()
		for i := 0; i < 500; i++ {
			line := uint32(s.Intn(64))
			switch s.Intn(3) {
			case 0:
				c.Access(line)
			case 1:
				c.Install(line)
				if !c.Contains(line) {
					return false
				}
			case 2:
				c.Invalidate(line)
			}
		}
		for set := 0; set < c.NumSets(); set++ {
			n := 0
			for line := uint32(0); line < 64; line++ {
				if c.SetOf(line) == set && c.Contains(line) {
					n++
				}
			}
			if n > c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(32*1024, 4)
	c.Install(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(1)
	}
}

// model is the reference the tag store is checked against: each set's
// lines in MRU-first order, in a map.
type model struct {
	ways, numSets int
	sets          map[int][]uint32
}

func (m *model) find(line uint32) (set []uint32, s, i int) {
	s = int(line) & (m.numSets - 1)
	set = m.sets[s]
	for i, l := range set {
		if l == line {
			return set, s, i
		}
	}
	return set, s, -1
}

func (m *model) access(line uint32) bool {
	set, s, i := m.find(line)
	if i < 0 {
		return false
	}
	m.sets[s] = append([]uint32{line}, append(set[:i:i], set[i+1:]...)...)
	return true
}

func (m *model) install(line uint32) (uint32, bool) {
	if m.access(line) {
		return 0, false
	}
	set, s, _ := m.find(line)
	var evicted uint32
	did := len(set) == m.ways
	if did {
		evicted = set[len(set)-1]
		set = set[:len(set)-1]
	}
	m.sets[s] = append([]uint32{line}, set...)
	return evicted, did
}

func (m *model) invalidate(line uint32) bool {
	set, s, i := m.find(line)
	if i < 0 {
		return false
	}
	m.sets[s] = append(set[:i:i], set[i+1:]...)
	return true
}

// runModel applies ops, decoded from data two bytes at a time (an
// opcode byte, a line byte), to a cache of sets sets and ways ways
// (taken from the first byte) and to the reference model, checking
// every result and, after each operation, every line's presence.
// Lines range over four times the cache's capacity, so full sets and
// evictions are common.
func runModel(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	ways := 1 + int(data[0]&7)
	numSets := 1 << (data[0] >> 3 & 3)
	data = data[1:]
	c := New(numSets*ways*isa.LineBytes, ways)
	m := &model{ways: ways, numSets: numSets, sets: map[int][]uint32{}}
	span := uint32(4 * numSets * ways)
	for ; len(data) >= 2; data = data[2:] {
		op, line := data[0], uint32(data[1])%span
		switch op % 8 {
		case 0, 1:
			if got, want := c.Access(line), m.access(line); got != want {
				t.Fatalf("Access(%d) = %v, want %v", line, got, want)
			}
		case 2, 3, 4:
			ge, gd := c.Install(line)
			we, wd := m.install(line)
			if ge != we || gd != wd {
				t.Fatalf("Install(%d) = %d,%v, want %d,%v", line, ge, gd, we, wd)
			}
		case 5:
			if got, want := c.Invalidate(line), m.invalidate(line); got != want {
				t.Fatalf("Invalidate(%d) = %v, want %v", line, got, want)
			}
		case 6:
			_, _, i := m.find(line)
			if got := c.Contains(line); got != (i >= 0) {
				t.Fatalf("Contains(%d) = %v, want %v", line, got, i >= 0)
			}
		case 7:
			c.Flush()
			clear(m.sets)
		}
		for l := uint32(0); l < span; l++ {
			if _, _, i := m.find(l); c.Contains(l) != (i >= 0) {
				t.Fatalf("after op %d on line %d: Contains(%d) = %v, model %v", op%8, line, l, !(i >= 0), i >= 0)
			}
		}
		if sets, _ := c.Storage(); sets > numSets {
			t.Fatalf("%d blocks for %d sets", sets, numSets)
		}
	}
}

func FuzzCache(f *testing.F) {
	f.Add([]byte{0x09, 2, 0, 2, 2, 2, 4, 2, 6, 0, 0, 7, 0, 2, 6, 5, 2, 6, 2})
	f.Add([]byte{0x1f, 2, 1, 2, 9, 2, 17, 2, 25, 2, 33, 2, 41, 2, 49, 2, 57, 2, 65, 0, 9, 5, 33, 7, 0, 2, 3})
	f.Add([]byte{0x00, 2, 0, 2, 1, 0, 0, 6, 1, 7, 0, 2, 1, 6, 1})
	f.Fuzz(runModel)
}

// Sets that never hold a line take no block, and Flush hands every
// block back for reuse.
func TestStorageFollowsTouchedSets(t *testing.T) {
	c := New(8*1024*1024, 8) // paper L2: 32 768 sets
	dense := c.NumSets() * (c.Ways() + 1) * 4
	for line := uint32(0); line < 3000; line++ {
		c.Install(line * 7)
		c.Contains(line*7 + 1) // a probe takes no block
	}
	sets, bytes := c.Storage()
	if sets != 3000 {
		t.Fatalf("%d sets hold blocks, want 3000", sets)
	}
	if bytes > dense/4 {
		t.Fatalf("tag store holds %d bytes for 3000 of %d sets (dense: %d)", bytes, c.NumSets(), dense)
	}
	c.Flush()
	c.Install(5)
	if sets, again := c.Storage(); sets != 1 || again != bytes {
		t.Fatalf("after Flush: %d sets, %d bytes; want 1 set in the same %d bytes", sets, again, bytes)
	}
	for line := uint32(0); line < uint32(c.NumSets()); line++ {
		c.Install(line)
	}
	if _, full := c.Storage(); full != dense+2*c.NumSets()+(c.Ways()+1)*4 {
		t.Fatalf("every set touched: %d bytes, want the dense %d plus the index and the empty block", full, dense)
	}
}

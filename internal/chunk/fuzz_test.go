package chunk

import (
	"slices"
	"testing"

	"delorean/internal/isa"
)

// model is the reference a chunk's buffers are checked against: plain
// maps and slices, with no hint or table to get wrong.
type model struct {
	vals   map[uint32]uint64
	order  []uint32 // first-write order of words
	read   map[uint32]bool
	wrote  map[uint32]bool
	wLines []uint32 // first-write order of lines
}

func newModel() *model {
	return &model{vals: map[uint32]uint64{}, read: map[uint32]bool{}, wrote: map[uint32]bool{}}
}

func (m *model) write(addr uint32, v uint64) (newLine bool) {
	if _, ok := m.vals[addr]; !ok {
		m.order = append(m.order, addr)
	}
	m.vals[addr] = v
	line := isa.LineOf(addr)
	if m.wrote[line] {
		return false
	}
	m.wrote[line] = true
	m.wLines = append(m.wLines, line)
	return true
}

// checkAll compares everything c reports as a whole with m: the
// written lines in order, the store count, and Apply's order and values.
func checkAll(t *testing.T, c *Chunk, m *model) {
	t.Helper()
	if !slices.Equal(c.WLines(), m.wLines) || c.NumWLines() != len(m.wLines) {
		t.Fatalf("WLines = %v (%d), model %v", c.WLines(), c.NumWLines(), m.wLines)
	}
	if c.StoreCount() != len(m.order) {
		t.Fatalf("StoreCount = %d, model %d", c.StoreCount(), len(m.order))
	}
	var i int
	c.Apply(func(a uint32, v uint64) {
		if i >= len(m.order) || a != m.order[i] || v != m.vals[a] {
			t.Fatalf("Apply %d: (%#x, %d), model %v %v", i, a, v, m.order, m.vals)
		}
		i++
	})
	if i != len(m.order) {
		t.Fatalf("Apply stored %d words, model %d", i, len(m.order))
	}
	for line := range m.read {
		if !c.RSig.MayContain(line) {
			t.Fatalf("read signature misses line %#x", line)
		}
	}
	for line := range m.wrote {
		if !c.WSig.MayContain(line) {
			t.Fatalf("write signature misses line %#x", line)
		}
	}
}

// FuzzChunk drives a chunk's write buffer and line footprint with ops
// decoded three bytes at a time (an opcode, then a word address folded
// into 1024 words, 256 lines) and checks every answer against a map
// model. Runs of one line exercise the last-line hints; Reuse must
// forget them with the rest of the footprint.
func FuzzChunk(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 4, 1, 0, 2, 1, 0, 3, 1, 0, 6, 0, 0, 1, 1, 0, 4, 1, 0, 5, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 8, 0, 4, 0, 0, 4, 4, 0, 2, 0, 0, 3, 0, 0, 5, 0, 0})
	f.Add([]byte{0, 7, 3, 2, 7, 3, 0, 8, 3, 6, 0, 0, 4, 7, 3, 3, 7, 3, 0, 7, 3, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(0, 0, isa.ThreadState{}, 2000)
		m := newModel()
		for len(data) >= 3 {
			op := data[0] % 7
			addr := uint32(data[1]) | uint32(data[2]&3)<<8
			line := isa.LineOf(addr)
			v := uint64(data[0])<<8 | uint64(data[1])
			data = data[3:]
			switch op {
			case 0:
				if got, want := c.Write(addr, v), m.write(addr, v); got != want {
					t.Fatalf("Write(%#x) new line = %v, model %v", addr, got, want)
				}
			case 1:
				got, ok := c.Load(addr)
				want, had := m.vals[addr]
				if ok != had || got != want {
					t.Fatalf("Load(%#x) = %d,%v, model %d,%v", addr, got, ok, want, had)
				}
			case 2:
				c.NoteRead(line)
				m.read[line] = true
			case 3:
				if got := c.ReadLine(line); got != m.read[line] {
					t.Fatalf("ReadLine(%#x) = %v, model %v", line, got, m.read[line])
				}
			case 4:
				if got := c.WroteLine(line); got != m.wrote[line] {
					t.Fatalf("WroteLine(%#x) = %v, model %v", line, got, m.wrote[line])
				}
			case 5:
				checkAll(t, c, m)
			case 6:
				checkAll(t, c, m)
				c.Reuse(c.SeqID+1, isa.ThreadState{}, 2000)
				m = newModel()
			}
		}
		checkAll(t, c, m)
	})
}

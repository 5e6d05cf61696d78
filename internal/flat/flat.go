// Package flat provides Table, the open-addressed uint32 → uint64 hash
// table behind the simulator's hot per-address and per-line state:
// memory words and their write journal, a chunk's write buffer and line
// footprint, the coherence directory and the baseline recorders' line
// table.
//
// A Go map pays for generality the simulator does not need: hashing
// through a function pointer, bucket indirection, and an O(capacity)
// clear. Table stores keys and values inline in one slot array, probes
// linearly from a multiplicative hash, and clears in O(1) with a
// per-slot generation stamp — the property a recycled chunk needs.
//
// Keys can come from outside: a replay restores memory images from
// uploaded recordings. The hash is therefore keyed with a secret drawn
// per table, as Go maps are, so no fixed key set can pile into one
// probe run (see home).
package flat

import (
	"math/bits"
	"math/rand/v2"
)

// slot is one table entry. It is live iff gen equals the table's
// current generation; gen 0 never is, so a zeroed slot array is empty.
type slot struct {
	key uint32
	gen uint32
	val uint64
}

// Table maps uint32 keys to uint64 values. The zero value is an empty
// table ready to use. A Table is not safe for concurrent mutation;
// concurrent Get, Len and Each calls are safe.
//
// Iteration order (Each) depends on the table's random hash key: it is
// not key order and differs from run to run.
type Table struct {
	slots []slot
	mask  uint32 // len(slots) - 1
	shift uint8  // 64 - log2(len(slots))
	gen   uint32 // current generation; 0 until the first insert
	n     int

	// mul and add key the hash; drawn at the first allocation, mul odd.
	mul, add uint64
	mixed    bool // home mixes mul·k + add before taking its top bits
}

// minSlots is the capacity of a table's first allocation.
const minSlots = 16

// maxProbe is how far past its home Ptr may place a key before the
// table switches to mixed hashing.
const maxProbe = 32

// home returns k's preferred slot: the top bits of mul·k + add mod
// 2^64. With mul and add random this is a keyed, nearly 2-independent
// hash (Dietzfelbinger, STACS 1996), so keys chosen without the key
// collide no more than chance allows. Being affine, it maps strided
// addresses to strided slots, which the hardware prefetcher follows; a
// hash that scatters them made sequential lookups about three times
// slower on x86-64.
//
// Some keys cluster some strides, though; once an insert lands more
// than maxProbe slots past its home, the table rehashes with a fixed
// xor-shift-multiply folded in, which behaves like a random function.
func (t *Table) home(k uint32) uint32 {
	x := uint64(k)*t.mul + t.add
	if t.mixed {
		x ^= x >> 32
		x *= 0x9E3779B97F4A7C15
	}
	return uint32(x >> t.shift)
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Get returns k's value and whether k is present.
func (t *Table) Get(k uint32) (uint64, bool) {
	if t.n == 0 {
		return 0, false
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Ptr returns a pointer to k's value, inserting k with value 0 if it is
// absent; inserted reports whether it was. The pointer is valid until
// the next Ptr, Delete or Reset on t.
func (t *Table) Ptr(k uint32) (v *uint64, inserted bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	for i, d := t.home(k), 0; ; i, d = (i+1)&t.mask, d+1 {
		s := &t.slots[i]
		if s.gen != t.gen {
			if d > maxProbe && !t.mixed {
				t.mixed = true
				t.rehash(len(t.slots))
				return t.Ptr(k)
			}
			*s = slot{key: k, gen: t.gen}
			t.n++
			return &s.val, true
		}
		if s.key == k {
			return &s.val, false
		}
	}
}

// Delete removes k, reporting whether it was present. Later entries of
// k's probe run shift back into the hole, so lookups never need
// tombstones.
func (t *Table) Delete(k uint32) bool {
	if t.n == 0 {
		return false
	}
	i := t.home(k)
	for ; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return false
		}
		if s.key == k {
			break
		}
	}
	// Backward shift: walk the run after the hole at i; an entry at j
	// whose home h is not cyclically within (i, j] may move into i.
	for j := (i + 1) & t.mask; t.slots[j].gen == t.gen; j = (j + 1) & t.mask {
		h := t.home(t.slots[j].key)
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i].gen = 0
	t.n--
	return true
}

// Reset empties the table in O(1), keeping its capacity.
func (t *Table) Reset() {
	t.n = 0
	if t.gen == 0 {
		return // never inserted into: every slot is already empty
	}
	t.gen++
	if t.gen == 0 {
		// Wrapped: stale stamps could match future generations.
		clear(t.slots)
		t.gen = 1
	}
}

// Each calls fn for every entry. fn must not modify t.
func (t *Table) Each(fn func(k uint32, v uint64)) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.gen == t.gen {
			fn(s.key, s.val)
		}
	}
}

// grow doubles the slot array (allocating the first one), keeping the
// load factor at most one half.
func (t *Table) grow() { t.rehash(max(2*len(t.slots), minSlots)) }

// rehash moves the live entries into a fresh array of size slots,
// drawing the hash key at the first allocation.
func (t *Table) rehash(size int) {
	old, gen := t.slots, t.gen
	t.slots = make([]slot, size)
	t.mask = uint32(size - 1)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.gen = 1
	if t.mul == 0 {
		t.mul, t.add = rand.Uint64()|1, rand.Uint64()
	}
	for i := range old {
		if s := old[i]; s.gen == gen {
			j := t.home(s.key)
			for t.slots[j].gen == t.gen {
				j = (j + 1) & t.mask
			}
			t.slots[j] = slot{key: s.key, gen: t.gen, val: s.val}
		}
	}
}

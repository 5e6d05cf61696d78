// Package cache models set-associative cache tag arrays with LRU
// replacement.
//
// Caches here are timing structures: data values live in the functional
// memory (internal/mem), while these tag arrays decide hit/miss latency
// and provide the set geometry that chunk-overflow detection needs. A
// chunk that speculatively writes more lines mapping to one L1 set than
// the set has ways must be truncated before speculative data overflows
// (paper §4.2.3); the bulksc engine uses SetOf/Ways for that accounting.
package cache

import (
	"fmt"

	"delorean/internal/isa"
)

// Cache is a set-associative tag array. Not safe for concurrent use; the
// simulator is single-goroutine by design (deterministic event order).
//
// The tag store is two flat, pointer-free arrays rather than a slice per
// set: with tens of thousands of L2 sets, per-set slice headers
// dominated both allocation and GC scan time, and Flush only has to
// zero the per-set sizes.
type Cache struct {
	ways    int
	numSets int
	setMask uint32
	// lines[s*ways : s*ways+size[s]] holds set s's line addresses in
	// MRU-first order.
	lines []uint32
	size  []int32
}

// New constructs a cache of sizeBytes capacity with the given
// associativity and the global line size. sizeBytes must yield a
// power-of-two number of sets.
func New(sizeBytes, ways int) *Cache {
	lines := sizeBytes / isa.LineBytes
	if lines <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %dB/%d-way", sizeBytes, ways))
	}
	numSets := lines / ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", numSets))
	}
	return &Cache{
		ways: ways, numSets: numSets, setMask: uint32(numSets - 1),
		lines: make([]uint32, numSets*ways),
		size:  make([]int32, numSets),
	}
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// SetOf maps a line address to its set index.
func (c *Cache) SetOf(line uint32) int { return int(line & c.setMask) }

// Access looks up line, returning true on hit. On hit the line becomes
// most-recently-used. On miss the cache is unchanged; callers that model
// a fill follow up with Install.
func (c *Cache) Access(line uint32) bool {
	s := line & c.setMask
	base := int(s) * c.ways
	set := c.lines[base : base+int(c.size[s])]
	for i, l := range set {
		if l == line {
			if i != 0 {
				copy(set[1:i+1], set[:i])
				set[0] = line
			}
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU state.
func (c *Cache) Contains(line uint32) bool {
	s := line & c.setMask
	base := int(s) * c.ways
	for _, l := range c.lines[base : base+int(c.size[s])] {
		if l == line {
			return true
		}
	}
	return false
}

// Install fills line as MRU, evicting the LRU line if the set is full.
// Installing a line already present is equivalent to Access.
func (c *Cache) Install(line uint32) (evicted uint32, didEvict bool) {
	if c.Access(line) {
		return 0, false
	}
	s := line & c.setMask
	base := int(s) * c.ways
	n := int(c.size[s])
	if n == c.ways {
		evicted = c.lines[base+n-1]
		didEvict = true
	} else {
		n++
		c.size[s] = int32(n)
	}
	set := c.lines[base : base+n]
	copy(set[1:], set[:n-1])
	set[0] = line
	return evicted, didEvict
}

// Invalidate removes line if present (coherence invalidation).
func (c *Cache) Invalidate(line uint32) bool {
	s := line & c.setMask
	base := int(s) * c.ways
	n := int(c.size[s])
	set := c.lines[base : base+n]
	for i, l := range set {
		if l == line {
			copy(set[i:], set[i+1:])
			c.size[s] = int32(n - 1)
			return true
		}
	}
	return false
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for i := range c.size {
		c.size[i] = 0
	}
}

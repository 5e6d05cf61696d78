// Package cache models set-associative cache tag arrays with LRU
// replacement.
//
// Caches here are timing structures: data values live in the functional
// memory (internal/mem), while these tag arrays decide hit/miss latency
// and provide the set geometry that chunk-overflow detection needs. A
// chunk that speculatively writes more lines mapping to one L1 set than
// the set has ways must be truncated before speculative data overflows
// (paper §4.2.3); the bulksc engine uses SetOf/Ways for that accounting.
//
// A cache keeps tag storage only for the sets that have held a line
// since it was built or last flushed. The paper's 8 MB, 8-way L2 has
// 32 768 sets, and a simulation touches a few thousand of them, so a
// dense tag array (1 MB of tags per hierarchy) was mostly storage that
// nobody read.
package cache

import (
	"fmt"

	"delorean/internal/isa"
)

// Cache is a set-associative tag array. Not safe for concurrent use; the
// simulator is single-goroutine by design (deterministic event order).
//
// The tag store is pointer-free. A dense index maps each set to a block
// in a pool, allocated when the set first receives a line. A block is
// ways+1 words: a header word (the set's index above headerSetShift,
// its line count below) followed by the line slots, holding the set's
// lines in MRU-first order. The headers double as the list of sets that
// own blocks, so Flush clears only the index entries it filled. With
// every set touched the store is the dense array plus its index and one
// empty block.
type Cache struct {
	ways    int
	numSets int
	setMask uint32
	stride  int // ways + 1: the words per block

	// index[s] is set s's block number, 0 for none.
	index []uint16
	// blocks is the block pool. Block 0 is always empty: a set without
	// a block reads it, so lookups need no test for a missing block.
	// Flush truncates the pool to block 0 and keeps its capacity.
	blocks []uint32
}

const (
	headerSetShift = 8
	countMask      = 1<<headerSetShift - 1
	// minBlocks is the pool's first capacity, in blocks.
	minBlocks = 64
	// maxSets is the most sets whose blocks a 16-bit index entry can
	// number: the paper's L2, the largest cache simulated, has 32 768.
	maxSets = 1 << 15
)

// New constructs a cache of sizeBytes capacity with the given
// associativity and the global line size. sizeBytes must yield a
// power-of-two number of sets, at most maxSets.
func New(sizeBytes, ways int) *Cache {
	lines := sizeBytes / isa.LineBytes
	if ways <= 0 || ways > countMask || lines <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %dB/%d-way", sizeBytes, ways))
	}
	numSets := lines / ways
	if numSets&(numSets-1) != 0 || numSets > maxSets {
		panic(fmt.Sprintf("cache: %d sets is not a power of two up to %d", numSets, maxSets))
	}
	return &Cache{ways: ways, numSets: numSets, setMask: uint32(numSets - 1), stride: ways + 1,
		index: make([]uint16, numSets), blocks: make([]uint32, ways+1)}
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// SetOf maps a line address to its set index.
func (c *Cache) SetOf(line uint32) int { return int(line & c.setMask) }

// Storage reports how many sets hold a block and how many bytes the tag
// store holds, index and block pool capacity together.
func (c *Cache) Storage() (sets, bytes int) {
	return len(c.blocks)/c.stride - 1, 2*len(c.index) + 4*cap(c.blocks)
}

// set returns line's set's lines, MRU first, and the offset of its
// block: 0, the empty block, if the set has none.
func (c *Cache) set(line uint32) (set []uint32, off int) {
	off = int(c.index[line&c.setMask]) * c.stride
	return c.blocks[off+1 : off+1+int(c.blocks[off]&countMask)], off
}

// claim gives line's set an empty block and returns its offset. The
// pool grows by doubling but never past one block per set.
func (c *Cache) claim(line uint32) int {
	s := line & c.setMask
	off := len(c.blocks)
	if off+c.stride > cap(c.blocks) {
		grown := make([]uint32, off, min(max(2*cap(c.blocks), minBlocks*c.stride), (c.numSets+1)*c.stride))
		copy(grown, c.blocks)
		c.blocks = grown
	}
	c.blocks = c.blocks[:off+c.stride]
	c.index[s] = uint16(off / c.stride)
	c.blocks[off] = s << headerSetShift
	return off
}

// touch moves line to the front of set if present, reporting whether it
// was.
func touch(set []uint32, line uint32) bool {
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

// Access looks up line, returning true on hit. On hit the line becomes
// most-recently-used. On miss the cache is unchanged; callers that model
// a fill follow up with Install.
func (c *Cache) Access(line uint32) bool {
	set, _ := c.set(line)
	return touch(set, line)
}

// Contains reports presence without touching LRU state.
func (c *Cache) Contains(line uint32) bool {
	set, _ := c.set(line)
	for _, l := range set {
		if l == line {
			return true
		}
	}
	return false
}

// Install fills line as MRU, evicting the LRU line if the set is full.
// Installing a line already present is equivalent to Access.
func (c *Cache) Install(line uint32) (evicted uint32, didEvict bool) {
	set, off := c.set(line)
	if touch(set, line) {
		return 0, false
	}
	if off == 0 {
		off = c.claim(line)
	}
	n := len(set)
	if n == c.ways {
		evicted = set[n-1]
		didEvict = true
	} else {
		n++
		c.blocks[off]++
	}
	set = c.blocks[off+1 : off+1+n]
	copy(set[1:], set[:n-1])
	set[0] = line
	return evicted, didEvict
}

// Invalidate removes line if present (coherence invalidation).
func (c *Cache) Invalidate(line uint32) bool {
	set, off := c.set(line)
	for i, l := range set {
		if l == line {
			copy(set[i:], set[i+1:])
			c.blocks[off]--
			return true
		}
	}
	return false
}

// Flush empties the cache, keeping the block pool's capacity.
func (c *Cache) Flush() {
	for off := c.stride; off < len(c.blocks); off += c.stride {
		c.index[c.blocks[off]>>headerSetShift] = 0
	}
	c.blocks = c.blocks[:c.stride]
}

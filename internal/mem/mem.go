// Package mem provides the word-addressed functional memory shared by all
// machine models, plus snapshot/restore used as the system checkpoint that
// recording intervals start from (the paper assumes ReVive/SafetyNet-style
// checkpointing and declares its details out of scope).
package mem

import (
	"delorean/internal/flat"
	"delorean/internal/isa"
	"delorean/internal/runner"
)

// Memory is a sparse 64-bit word-addressed memory. Unwritten words read
// as zero. It is purely functional: timing lives in the cache and core
// models.
type Memory struct {
	// words holds the nonzero words: storing zero deletes the entry, so
	// "never written" and "written zero" are one state.
	words flat.Table

	// journal, while journaling, maps every address written since
	// BeginJournal to its value at BeginJournal time (first write wins).
	journal    flat.Table
	journaling bool
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

// Load returns the word at addr.
func (m *Memory) Load(addr uint32) uint64 {
	v, _ := m.words.Get(addr)
	return v
}

// Store writes the word at addr. Storing zero deletes the entry, the
// canonical form Hash and Snapshot rely on.
func (m *Memory) Store(addr uint32, v uint64) {
	if m.journaling {
		if p, fresh := m.journal.Ptr(addr); fresh {
			*p = m.Load(addr)
		}
	}
	if v == 0 {
		m.words.Delete(addr)
		return
	}
	p, _ := m.words.Ptr(addr)
	*p = v
}

// Len reports the number of nonzero words.
func (m *Memory) Len() int { return m.words.Len() }

// Clone returns a memory holding m's contents and no journal, under a
// hash key of its own. Concurrent Clones of one memory are safe while
// nothing stores to it.
func (m *Memory) Clone() *Memory { return &Memory{words: m.words.Clone()} }

// Snapshot captures the full memory contents. The snapshot is independent
// of future mutations.
func (m *Memory) Snapshot() map[uint32]uint64 {
	s := make(map[uint32]uint64, m.words.Len())
	m.words.Each(func(a uint32, v uint64) { s[a] = v })
	return s
}

// Restore replaces the memory contents with a snapshot taken earlier.
// Zero-valued snapshot entries are dropped (the canonical form Store
// maintains), and the existing table is reused rather than reallocated —
// replay workers Restore once per checkpoint interval. Restore bypasses
// the write journal; callers tracking writes against the restored state
// start a fresh journal with BeginJournal after it.
func (m *Memory) Restore(s map[uint32]uint64) {
	m.words.Reset()
	for a, v := range s {
		if v != 0 {
			p, _ := m.words.Ptr(a)
			*p = v
		}
	}
}

// BeginJournal starts (or restarts) write journaling: from now until
// EndJournal, the first Store to each address records the value the
// address held at BeginJournal time. The journal backs EqualDelta's
// O(written) equality check and Written's checkpoint deltas; journaling
// costs one table probe per Store.
func (m *Memory) BeginJournal() {
	m.journal.Reset()
	m.journaling = true
}

// EndJournal stops write journaling. The recorded journal remains
// available to EqualDelta and Written until the next BeginJournal.
func (m *Memory) EndJournal() { m.journaling = false }

// Written returns the current value of every address stored to since
// the last BeginJournal, zero for a word that is now zero: the memory's
// delta from its contents at BeginJournal (it may also list written
// words that ended at their old value).
func (m *Memory) Written() map[uint32]uint64 {
	d := make(map[uint32]uint64, m.journal.Len())
	m.journal.Each(func(a uint32, _ uint64) { d[a] = m.Load(a) })
	return d
}

// EqualDelta reports whether the memory's contents equal base+delta,
// where base is the contents at the last BeginJournal and delta maps
// changed addresses to their new values (zero meaning the word became
// zero). The check is exact — sound and complete — in O(|delta| +
// words written since BeginJournal), with no sort and no allocation:
//
//   - every delta address must hold its delta value;
//   - every journaled (written) address outside the delta must have
//     been restored to its base value;
//   - unwritten addresses outside the delta still hold their base
//     value, which the delta asserts is unchanged — nothing to check.
//
// A base word the delta claims changed but the execution never wrote
// fails the first rule (the delta value differs from the base value it
// still holds), so missing writes are caught, not just wrong ones.
func (m *Memory) EqualDelta(delta map[uint32]uint64) bool {
	for a, v := range delta {
		if m.Load(a) != v {
			return false
		}
	}
	equal := true
	m.journal.Each(func(a uint32, base uint64) {
		if _, in := delta[a]; !in && m.Load(a) != base {
			equal = false
		}
	})
	return equal
}

// ApplyDelta applies a checkpoint-style delta in place: zero-valued
// entries delete the word (the canonical form Store maintains), others
// overwrite it. Rolling a memory from one checkpoint image to a later
// one this way costs O(|delta|) where a Restore of the target image
// costs O(footprint). ApplyDelta bypasses the write journal — it is
// state setup, not simulated execution.
func (m *Memory) ApplyDelta(delta map[uint32]uint64) {
	for a, v := range delta {
		if v == 0 {
			m.words.Delete(a)
		} else {
			p, _ := m.words.Ptr(a)
			*p = v
		}
	}
}

// Hash returns a canonical FNV-1a hash over the nonzero words in address
// order. Two memories with identical architectural contents hash equally
// regardless of write history.
func (m *Memory) Hash() uint64 {
	ws := getWords(m.words.Len())
	m.words.Each(func(a uint32, v uint64) { ws = append(ws, word{a, v}) })
	return hashWords(ws)
}

// HashSnapshot hashes a snapshot map with the same canonical encoding as
// Hash: FNV-1a over nonzero words in address order. A memory and a
// snapshot of it hash equally without materializing a Memory.
func HashSnapshot(s map[uint32]uint64) uint64 {
	ws := getWords(len(s))
	for a, v := range s {
		if v != 0 {
			ws = append(ws, word{a, v})
		}
	}
	return hashWords(ws)
}

// word is one nonzero word of a memory's contents.
type word struct {
	addr uint32
	val  uint64
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// wordBufs recycles the word buffers hashing sorts: a memory's whole
// footprint, twice, on every Hash.
var wordBufs runner.FreeList[[]word]

// getWords returns an empty word buffer with room for n words.
func getWords(n int) []word {
	if ws, ok := wordBufs.Get(); ok && cap(ws) >= n {
		return ws[:0]
	}
	return make([]word, 0, n)
}

// hashWords is the canonical encoding behind Hash: FNV-1a over each
// word's little-endian address and value, in address order. ws holds
// distinct addresses in any order; hashWords reorders it and hands it
// back to wordBufs.
func hashWords(ws []word) uint64 {
	tmp := getWords(len(ws))[:len(ws)]
	h := fnvOffset
	for _, w := range sortWords(ws, tmp) {
		for k := 0; k < 32; k += 8 {
			h = (h ^ uint64(byte(w.addr>>k))) * fnvPrime
		}
		for k := 0; k < 64; k += 8 {
			h = (h ^ uint64(byte(w.val>>k))) * fnvPrime
		}
	}
	wordBufs.Put(ws)
	wordBufs.Put(tmp)
	return h
}

// sortWords orders ws by address with an LSD radix sort, one stable
// counting pass per address byte, in time linear in len(ws). A pass whose
// byte is the same in every address is skipped. The result is ws or tmp,
// a buffer of the same length.
func sortWords(ws, tmp []word) []word {
	if len(ws) < 2 {
		return ws
	}
	var counts [4][256]int
	for _, w := range ws {
		for p := range counts {
			counts[p][byte(w.addr>>(8*p))]++
		}
	}
	src, dst := ws, tmp
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(src[0].addr>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, w := range src {
			b := byte(w.addr >> shift)
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// LineOf re-exports the global line mapping for convenience.
func LineOf(addr uint32) uint32 { return isa.LineOf(addr) }

// Package mem provides the word-addressed functional memory shared by all
// machine models, plus snapshot/restore used as the system checkpoint that
// recording intervals start from (the paper assumes ReVive/SafetyNet-style
// checkpointing and declares its details out of scope).
package mem

import (
	"encoding/binary"
	"hash/fnv"
	"slices"

	"delorean/internal/flat"
	"delorean/internal/isa"
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
	addrs := make([]uint32, 0, m.words.Len())
	m.words.Each(func(a uint32, _ uint64) { addrs = append(addrs, a) })
	slices.Sort(addrs)
	h := fnv.New64a()
	var buf [12]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(buf[0:4], a)
		binary.LittleEndian.PutUint64(buf[4:12], m.Load(a))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// HashSnapshot hashes a snapshot map with the same canonical encoding as
// Hash: FNV-1a over nonzero words in address order. A memory and a
// snapshot of it hash equally without materializing a Memory.
func HashSnapshot(s map[uint32]uint64) uint64 {
	addrs := make([]uint32, 0, len(s))
	for a, v := range s {
		if v != 0 {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	h := fnv.New64a()
	var buf [12]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(buf[0:4], a)
		binary.LittleEndian.PutUint64(buf[4:12], s[a])
		h.Write(buf[:])
	}
	return h.Sum64()
}

// LineOf re-exports the global line mapping for convenience.
func LineOf(addr uint32) uint32 { return isa.LineOf(addr) }

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

// memories holds released memories for Get: a run's memory keeps the
// table capacity its run grew, so the next run restores or writes into
// it without regrowing the table from empty.
var memories runner.FreeList[*Memory]

// Get returns an empty memory, recycling one released by Put when there
// is one. A recycled memory holds no words and no journal, has
// journaling off and hashes under freshly drawn keys, so it behaves as
// New's would: only the table capacity carries over.
func Get() *Memory {
	m, ok := memories.Get()
	if !ok {
		return New()
	}
	m.words.Rekey()
	m.journal.Rekey()
	m.journaling = false
	return m
}

// Put hands a memory back for Get to reuse. The caller must not use m
// afterwards.
func Put(m *Memory) { memories.Put(m) }

// Word is one memory word: an address and its value.
type Word struct {
	Addr uint32
	Val  uint64
}

// Image is a list of words in strictly increasing address order, the
// order the recording container stores. It holds either a full memory
// image (Snapshot, a recording's initial memory), whose words are
// nonzero, or a delta against one (Written, a checkpoint's changed
// words), where a zero value records a word that became zero.
type Image []Word

// Snapshot captures the full memory contents: every nonzero word. The
// snapshot is independent of future mutations.
func (m *Memory) Snapshot() Image {
	ws := getWords(m.words.Len())
	m.words.Each(func(a uint32, v uint64) { ws = append(ws, Word{a, v}) })
	return toImage(ws)
}

// Restore replaces the memory contents with an image. Zero-valued
// entries are dropped (the canonical form Store maintains), and the
// existing table is reused rather than reallocated — replay workers
// Restore once per checkpoint interval. The emptied table draws a fresh
// hash key first, so an image (which may come from an uploaded
// recording) never lands under a key an earlier image could have
// probed. Restore bypasses the write journal; callers tracking writes
// against the restored state start a fresh journal with BeginJournal
// after it.
func (m *Memory) Restore(img Image) {
	m.words.Rekey()
	m.ApplyDelta(img)
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
func (m *Memory) Written() Image {
	ws := getWords(m.journal.Len())
	m.journal.Each(func(a uint32, _ uint64) { ws = append(ws, Word{a, m.Load(a)}) })
	return toImage(ws)
}

// EqualDelta reports whether the memory's contents equal base+delta,
// where base is the contents at the last BeginJournal and delta lists
// changed addresses with their new values (zero meaning the word became
// zero). The check is exact — sound and complete — in O(|delta| +
// words written since BeginJournal), with no sort and no allocation:
//
//   - every delta address must hold its delta value;
//   - every journaled (written) address that no longer holds its base
//     value must be a delta address: counting such addresses over the
//     journal and over the delta must agree, as the delta's addresses
//     are distinct;
//   - unwritten addresses outside the delta still hold their base
//     value, which the delta asserts is unchanged — nothing to check.
//
// A base word the delta claims changed but the execution never wrote
// fails the first rule (the delta value differs from the base value it
// still holds), so missing writes are caught, not just wrong ones.
func (m *Memory) EqualDelta(delta Image) bool {
	inDelta := 0
	for _, w := range delta {
		if m.Load(w.Addr) != w.Val {
			return false
		}
		if base, ok := m.journal.Get(w.Addr); ok && base != w.Val {
			inDelta++
		}
	}
	changed := 0
	m.journal.Each(func(a uint32, base uint64) {
		if m.Load(a) != base {
			changed++
		}
	})
	return changed == inDelta
}

// ApplyDelta applies a checkpoint-style delta in place: zero-valued
// entries delete the word (the canonical form Store maintains), others
// overwrite it. Rolling a memory from one checkpoint image to a later
// one this way costs O(|delta|) where a Restore of the target image
// costs O(footprint). ApplyDelta bypasses the write journal — it is
// state setup, not simulated execution.
func (m *Memory) ApplyDelta(delta Image) {
	for _, w := range delta {
		if w.Val == 0 {
			m.words.Delete(w.Addr)
		} else {
			p, _ := m.words.Ptr(w.Addr)
			*p = w.Val
		}
	}
}

// Hash returns a canonical FNV-1a hash over the nonzero words in address
// order: each word's little-endian address and value. Two memories with
// identical architectural contents hash equally regardless of write
// history.
func (m *Memory) Hash() uint64 {
	ws := getWords(m.words.Len())
	m.words.Each(func(a uint32, v uint64) { ws = append(ws, Word{a, v}) })
	tmp := getWords(len(ws))[:len(ws)]
	h := fnvOffset
	for _, w := range sortWords(ws, tmp) {
		for k := 0; k < 32; k += 8 {
			h = (h ^ uint64(byte(w.Addr>>k))) * fnvPrime
		}
		for k := 0; k < 64; k += 8 {
			h = (h ^ uint64(byte(w.Val>>k))) * fnvPrime
		}
	}
	wordBufs.Put(ws)
	wordBufs.Put(tmp)
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// wordBufs recycles the word buffers Hash, Snapshot and Written sort in.
var wordBufs runner.FreeList[[]Word]

// getWords returns an empty word buffer with room for n words.
func getWords(n int) []Word {
	if ws, ok := wordBufs.Get(); ok && cap(ws) >= n {
		return ws[:0]
	}
	return make([]Word, 0, n)
}

// toImage returns ws, which holds distinct addresses in any order, as
// a fresh Image and hands ws back to wordBufs.
func toImage(ws []Word) Image {
	img := make(Image, len(ws))
	copy(img, sortWords(ws, img))
	wordBufs.Put(ws)
	return img
}

// sortWords orders ws by address with an LSD radix sort, one stable
// counting pass per address byte, in time linear in len(ws). A pass whose
// byte is the same in every address is skipped. The result is ws or tmp,
// a buffer of the same length.
func sortWords(ws, tmp []Word) []Word {
	if len(ws) < 2 {
		return ws
	}
	var counts [4][256]int
	for _, w := range ws {
		for p := range counts {
			counts[p][byte(w.Addr>>(8*p))]++
		}
	}
	src, dst := ws, tmp
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(src[0].Addr>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, w := range src {
			b := byte(w.Addr >> shift)
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// LineOf re-exports the global line mapping for convenience.
func LineOf(addr uint32) uint32 { return isa.LineOf(addr) }

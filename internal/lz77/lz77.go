// Package lz77 implements the LZ77 compression algorithm used to model
// DeLorean's hardware log compressors.
//
// The paper states "all log buffers are enhanced with compression hardware
// that uses the LZ77 algorithm" (§5). This package provides a faithful
// software LZ77: a sliding window, a recycled hash-chain match-finder with
// lazy one-step matching and word-at-a-time prefix comparison, and a
// compact token encoding. It reports compressed sizes in bits so the
// experiment harnesses can express log sizes in
// bits/processor/kilo-instruction, as the paper does.
//
// Most calls price a log of a few bytes, so the recycled match tables are
// not refilled per call: positions are stored relative to a base that
// moves past each scan, and a call costs work in proportion to its input.
//
// Token format (bit-packed, LSB-first):
//
//	literal: 0 followed by 8 bits of data
//	match:   1 followed by windowBits bits of distance-1
//	           and lenBits bits of length-minLen
//
// Matches shorter than minLen are emitted as literals.
package lz77

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync/atomic"

	"delorean/internal/bitio"
	"delorean/internal/runner"
)

const (
	windowBits = 15 // 32 KiB window, mirroring a small hardware buffer
	lenBits    = 8
	minLen     = 3
	maxLen     = minLen + (1 << lenBits) - 1
	windowSize = 1 << windowBits

	hashBits = 15
	hashSize = 1 << hashBits
	hashLen  = 4 // bytes hashed per chain position; see hash4

	hash3Bits = 14
	hash3Size = 1 << hash3Bits
)

// hash4 hashes the four bytes at p. Hashing one byte more than minLen
// makes the chains far more selective: every chain entry shares a 4-byte
// prefix with the probe position, so walks spend their budget extending
// real candidates instead of rejecting 3-byte coincidences. Matches of
// exactly minLen bytes are recovered by the separate single-entry hash3
// table, which mirrors the candidate the old greedy matcher probed.
func hash4(p []byte) uint32 {
	return (binary.LittleEndian.Uint32(p) * 0x9e3779b1) >> (32 - hashBits)
}

// hash3 hashes the three bytes at p, for the single-entry short-match
// table.
func hash3(p []byte) uint32 {
	v := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	return (v * 0x9e3779b1) >> (32 - hash3Bits)
}

// matcher is the reusable match-search state: head[h] is the most recent
// position with hash h; prev chains older positions within the window.
// The tables are recycled through a free list because the log-size
// accounting paths call into the compressor once per query, mostly on
// inputs of a few bytes — a fresh head+prev pair, or even a refill of
// the 192 KiB of heads, per call would dominate their cost. A free list,
// unlike a sync.Pool, keeps its tables across garbage collections.
//
// Positions are stored as base+i, and each scan moves base past the
// positions it stored, so a table entry below base is empty: it belongs
// to an earlier scan. The tables are cleared only when base would pass
// math.MaxInt32.
type matcher struct {
	head  []int32 // hash4 chain heads
	head3 []int32 // most recent position per hash3 bucket (no chain)
	prev  []int32
	next  int32 // base of the next scan
}

// matchers holds idle matchers for reuse.
var matchers runner.FreeList[*matcher]

// getMatcher returns an idle matcher, or a new one; hand it back with
// matchers.Put.
func getMatcher() *matcher {
	if m, ok := matchers.Get(); ok {
		return m
	}
	return newMatcher()
}

func newMatcher() *matcher {
	// The tables start zeroed, so base 1 makes every entry empty.
	return &matcher{head: make([]int32, hashSize), head3: make([]int32, hash3Size), next: 1}
}

// claim readies m for a scan of n bytes and returns the scan's base, the
// stored position of its first byte.
func (m *matcher) claim(n int) int32 {
	if int64(m.next)+int64(n)+1 > math.MaxInt32 {
		clear(m.head)
		clear(m.head3)
		m.next = 1
	}
	base := m.next
	m.next += int32(n) + 1
	if cap(m.prev) < n {
		m.prev = make([]int32, n)
	} else {
		m.prev = m.prev[:n]
	}
	return base
}

// Match-finder tuning. These model a hardware match-finder's bounded
// probe budget: maxChain caps the hash-chain walk per position, goodLen
// stops the walk once a match that long is in hand, and lazyMax disables
// the one-step lazy probe when the current match is already long enough
// that deferral almost never pays.
const (
	maxChain = 16
	goodLen  = 32
	lazyMax  = 32
)

// scans counts match-finder passes, so tests can assert the memoized
// accounting paths stopped re-scanning buffers they already priced.
var scans atomic.Int64

// ScanCount returns the number of full match-finder passes this process
// has run (test instrumentation).
func ScanCount() int64 { return scans.Load() }

// scan runs the hash-chain tokenization of src with lazy one-step
// matching, calling emitLiteral/emitMatch for each token. Compress and
// CompressedBits share it, so the counted size is the packed size by
// construction.
func scan(src []byte, m *matcher, emitLiteral func(b byte), emitMatch func(dist, length int)) {
	scans.Add(1)
	n := len(src)
	base := m.claim(n)
	if n < minLen {
		for _, b := range src {
			emitLiteral(b)
		}
		return
	}
	head, head3, prev := m.head, m.head3, m.prev
	hash4End := n - hashLen // last position with a full 4-byte hash window
	hash3End := n - minLen  // last position with a full 3-byte hash window
	// index records position i in both tables; probe must read its
	// candidates first.
	index := func(i int) {
		pos := base + int32(i)
		head3[hash3(src[i:])] = pos
		if i <= hash4End {
			h := hash4(src[i:])
			prev[i] = head[h]
			head[h] = pos
		}
	}
	// probe returns the best match starting at i: the single hash3
	// candidate (what the old greedy matcher saw) plus the hash4 chain.
	probe := func(i int) (int, int) {
		c3 := head3[hash3(src[i:])]
		if i <= hash4End {
			return findMatch(src, head, prev, base, i, hash4(src[i:]), c3)
		}
		return probeOne(src, base, i, c3)
	}
	i := 0
	misses := 0 // consecutive positions with no match, drives skip stride
	for i < n {
		if i > hash3End {
			emitLiteral(src[i])
			i++
			continue
		}
		l, d := probe(i)
		index(i)
		if l < minLen {
			emitLiteral(src[i])
			i++
			misses++
			// Skip acceleration on long literal runs: every byte is still
			// emitted and indexed, but the (expensive) chain probe runs at
			// a stride that grows with the run length. A found match
			// resets the stride, so compressible regions pay nothing.
			if misses >= 64 {
				for k := misses >> 6; k > 0 && i <= hash3End; k-- {
					index(i)
					emitLiteral(src[i])
					i++
				}
			}
			continue
		}
		misses = 0
		// Lazy one-step matching: when position i+1 starts a strictly
		// longer match, emit src[i] as a literal and carry the better
		// match forward instead of committing the shorter one.
		if l < lazyMax && i < hash3End {
			l1, d1 := probe(i + 1)
			if l1 > l {
				emitLiteral(src[i])
				i++
				index(i)
				l, d = l1, d1
			}
		}
		emitMatch(d, l)
		end := i + l
		for j := i + 1; j < end && j <= hash3End; j++ {
			index(j)
		}
		i = end
	}
}

// windowLimit returns the stored position at or below which a candidate
// for a match at i is empty or outside the window.
func windowLimit(base int32, i int) int32 {
	if i < windowSize {
		return base - 1
	}
	return base + int32(i-windowSize)
}

// probeOne evaluates the single stored candidate cand for a match
// starting at i (used for tail positions past the last full hash4
// window).
func probeOne(src []byte, base int32, i int, cand int32) (int, int) {
	if cand <= windowLimit(base, i) {
		return 0, 0
	}
	c := int(cand - base)
	avail := len(src) - i
	if avail > maxLen {
		avail = maxLen
	}
	l := matchLen(src[c:], src[i:i+avail])
	if l < minLen {
		return 0, 0
	}
	return l, i - c
}

// findMatch walks position i's hash4 chain (already hashed to h) for the
// longest match within the window, seeding the search with the hash3
// table's candidate c3 so minLen-byte matches the 4-byte hash cannot see
// are still found. A candidate that cannot beat the best so far must
// differ at byte bestLen, so one byte comparison rejects it before the
// full matchLen. The walk stops after maxChain probes or as soon as a
// goodLen match is in hand. Candidates are stored positions (base+index).
func findMatch(src []byte, head, prev []int32, base int32, i int, h uint32, c3 int32) (bestLen, bestDist int) {
	avail := len(src) - i
	if avail > maxLen {
		avail = maxLen
	}
	limit := windowLimit(base, i)
	bestLen = minLen - 1
	b := src[i : i+avail]
	if c3 > limit {
		c := int(c3 - base)
		if l := matchLen(src[c:], b); l > bestLen {
			bestLen, bestDist = l, i-c
			if bestLen >= avail || bestLen >= goodLen {
				return bestLen, bestDist
			}
		}
	}
	reject := b[bestLen] // loop-invariant until bestLen grows
	for cand, chain := head[h], maxChain; cand > limit; cand = prev[cand-base] {
		c := int(cand - base)
		if src[c+bestLen] != reject {
			if chain--; chain <= 0 {
				break
			}
			continue
		}
		l := matchLen(src[c:], b)
		if l > bestLen {
			bestLen, bestDist = l, i-c
			if l >= avail || l >= goodLen {
				break
			}
			reject = b[l]
		}
		if chain--; chain <= 0 {
			break
		}
	}
	if bestLen < minLen {
		return 0, 0
	}
	return bestLen, bestDist
}

// Compress returns the LZ77 token stream for src and its length in bits.
// The bit length, not the padded byte length, is the honest measure of a
// hardware log buffer's occupancy.
func Compress(src []byte) (packed []byte, bits int) {
	var w bitio.Writer
	CompressInto(&w, src)
	return w.Bytes(), w.Len()
}

// CompressInto is Compress writing the token stream into w, which it
// resets first, so a caller compressing many buffers can reuse one
// writer's allocation.
func CompressInto(w *bitio.Writer, src []byte) {
	m := getMatcher()
	defer matchers.Put(m)
	m.compress(w, src)
}

func (m *matcher) compress(w *bitio.Writer, src []byte) {
	w.Reset()
	scan(src, m,
		func(b byte) {
			w.WriteBits(0, 1)
			w.WriteBits(uint64(b), 8)
		},
		func(dist, length int) {
			w.WriteBits(1, 1)
			w.WriteBits(uint64(dist-1), windowBits)
			w.WriteBits(uint64(length-minLen), lenBits)
		})
}

// matchLen returns the length of the common prefix of a and b, capped at
// maxLen. It compares eight bytes at a time — the first differing byte
// falls out of the XOR's trailing zero count — with an explicit
// byte-at-a-time tail for the last partial word. a and b may overlap
// (they are views into the same source buffer).
func matchLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n > maxLen {
		n = maxLen
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for ; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// ErrCorrupt reports a malformed token stream.
var ErrCorrupt = errors.New("lz77: corrupt stream")

// Decompress reverses Compress. bits is the bit length returned by
// Compress. limit caps the output length: a stream that would decode to
// more than limit bytes fails with ErrCorrupt as soon as it crosses the
// cap, so a hostile stream cannot expand unboundedly before a caller's
// length check runs. The output is allocated once, at the smaller of
// limit and what the stream could decode to.
func Decompress(packed []byte, bits, limit int) ([]byte, error) {
	r := bitio.NewReader(packed, bits)
	out := make([]byte, 0, min(limit, MaxDecodedLen(bits)))
	for r.Remaining() >= 9 {
		isMatch, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if !isMatch {
			b, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			if len(out) >= limit {
				return nil, ErrCorrupt
			}
			out = append(out, byte(b))
			continue
		}
		d, err := r.ReadBits(windowBits)
		if err != nil {
			return nil, err
		}
		l, err := r.ReadBits(lenBits)
		if err != nil {
			return nil, err
		}
		dist, length := int(d)+1, int(l)+minLen
		if dist > len(out) || length > limit-len(out) {
			return nil, ErrCorrupt
		}
		// Byte-at-a-time copy: matches may overlap their own output.
		start := len(out) - dist
		for k := 0; k < length; k++ {
			out = append(out, out[start+k])
		}
	}
	return out, nil
}

// Token bit costs: a literal is a flag bit plus the byte; a match is a
// flag bit plus the packed distance and length.
const (
	literalBits = 1 + 8
	matchBits   = 1 + windowBits + lenBits
)

// MaxDecodedLen bounds the output of Decompress for a stream of the
// given bit length: at most maxLen bytes per match token, the densest
// encoding, plus one byte per literal that fits in the leftover bits.
// Containers use it to reject a frame whose declared decoded length its
// compressed payload could never produce.
func MaxDecodedLen(bits int) int {
	if bits <= 0 {
		return 0
	}
	return bits/matchBits*maxLen + bits%matchBits/literalBits
}

// CompressedBits returns only the compressed size in bits, without
// materializing the token stream. The log-size accounting paths (dlog's
// compressed-bits queries) never use the packed bytes, so this skips the
// bit packing entirely and just prices the tokens the shared scan emits.
func CompressedBits(src []byte) int {
	m := getMatcher()
	defer matchers.Put(m)
	return m.compressedBits(src)
}

func (m *matcher) compressedBits(src []byte) int {
	bits := 0
	scan(src, m,
		func(byte) { bits += literalBits },
		func(int, int) { bits += matchBits })
	return bits
}

// RatioOf returns compressed bits divided by the raw bit size of a
// rawLen-byte buffer, or 1 for an empty input. Callers that already hold
// a compressed size (from Compress or a memoized CompressedBits) use it
// to price a buffer without re-running the match-finder.
func RatioOf(compressedBits, rawLen int) float64 {
	if rawLen == 0 {
		return 1
	}
	return float64(compressedBits) / float64(8*rawLen)
}

// Ratio returns compressed bits divided by uncompressed bits, or 1 for an
// empty input. It runs one scan; callers with a known compressed size
// should use RatioOf instead.
func Ratio(src []byte) float64 {
	return RatioOf(CompressedBits(src), len(src))
}

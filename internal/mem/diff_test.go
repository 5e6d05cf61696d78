package mem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"delorean/internal/rng"
)

// refMemory is the reference model Memory is checked against: the same
// contract written over plain Go maps.
type refMemory struct {
	words      map[uint32]uint64
	journal    map[uint32]uint64
	journaling bool
	// base is the contents at BeginJournal, nil once a Restore,
	// ApplyDelta or unjournaled Store has changed them behind the
	// journal's back (EqualDelta's base+delta reading then no longer
	// applies).
	base map[uint32]uint64
}

func (r *refMemory) store(a uint32, v uint64) {
	if r.journaling {
		if _, ok := r.journal[a]; !ok {
			r.journal[a] = r.words[a]
		}
	} else {
		r.base = nil
	}
	if v == 0 {
		delete(r.words, a)
	} else {
		r.words[a] = v
	}
}

// imageOf returns a map model's words as an Image.
func imageOf(m map[uint32]uint64) Image {
	img := make(Image, 0, len(m))
	for a, v := range m {
		img = append(img, Word{a, v})
	}
	slices.SortFunc(img, func(x, y Word) int { return cmp.Compare(x.Addr, y.Addr) })
	return img
}

// mapOf returns an Image's words as a map, failing t unless the
// addresses strictly increase.
func mapOf(t testing.TB, img Image) map[uint32]uint64 {
	t.Helper()
	m := make(map[uint32]uint64, len(img))
	for i, w := range img {
		if i > 0 && w.Addr <= img[i-1].Addr {
			t.Fatalf("image address %#x at word %d does not follow %#x", w.Addr, i, img[i-1].Addr)
		}
		m[w.Addr] = w.Val
	}
	return m
}

func (r *refMemory) applyDelta(d map[uint32]uint64) {
	for a, v := range d {
		if v == 0 {
			delete(r.words, a)
		} else {
			r.words[a] = v
		}
	}
}

// equalDelta is EqualDelta's algorithm over maps.
func (r *refMemory) equalDelta(d map[uint32]uint64) bool {
	for a, v := range d {
		if r.words[a] != v {
			return false
		}
	}
	for a, base := range r.journal {
		if _, in := d[a]; !in && r.words[a] != base {
			return false
		}
	}
	return true
}

// collidingKeys returns n keys whose products with the 32-bit golden
// ratio are consecutive: an unkeyed Fibonacci hash, (k·0x9E3779B9 mod
// 2^32) >> shift, would put them all in one probe run. They are the
// keys an uploaded memory image would pick against a fixed hash.
func collidingKeys(n int) []uint32 {
	const phi = 0x9E3779B9
	inv := uint32(phi) // Newton's iteration for phi^-1 mod 2^32
	for i := 0; i < 5; i++ {
		inv *= 2 - phi*inv
	}
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = inv * (0xAB000000 + uint32(i))
	}
	return keys
}

// addrPool draws the addresses a differential run uses: uniform over
// the 32-bit space, the extremes, and a block of collidingKeys.
func addrPool(s *rng.Source) []uint32 {
	pool := []uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1, 1 << 31}
	pool = append(pool, collidingKeys(24)...)
	for len(pool) < 96 {
		pool = append(pool, uint32(s.Uint64()))
	}
	return pool
}

// TestMemoryMatchesMapModel drives random operations against Memory and
// the map model and checks they agree after every one.
func TestMemoryMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := rng.New(seed)
		pool := addrPool(s)
		addr := func() uint32 { return pool[s.Intn(len(pool))] }
		value := func() uint64 {
			if s.Intn(3) == 0 {
				return 0
			}
			return s.Uint64()%5 + 1
		}
		delta := func() map[uint32]uint64 {
			d := map[uint32]uint64{}
			for i := s.Intn(8); i > 0; i-- {
				d[addr()] = value()
			}
			return d
		}
		m := New()
		ref := &refMemory{words: map[uint32]uint64{}, journal: map[uint32]uint64{}}
		var snaps []Image
		for op := 0; op < 3000; op++ {
			switch k := s.Intn(100); {
			case k < 45:
				a, v := addr(), value()
				m.Store(a, v)
				ref.store(a, v)
			case k < 55:
				// Delete-then-reinsert chain through one probe run.
				for _, a := range pool[5:29] {
					if s.Intn(2) == 0 {
						m.Store(a, 0)
						ref.store(a, 0)
					}
				}
				for _, a := range pool[5:29] {
					if s.Intn(2) == 0 {
						v := value()
						m.Store(a, v)
						ref.store(a, v)
					}
				}
			case k < 65:
				a := addr()
				if got := m.Load(a); got != ref.words[a] {
					t.Fatalf("seed %d op %d: Load(%#x) = %d, want %d", seed, op, a, got, ref.words[a])
				}
			case k < 70:
				m.BeginJournal()
				ref.journal, ref.journaling = map[uint32]uint64{}, true
				ref.base = maps.Clone(ref.words)
			case k < 73:
				m.EndJournal()
				ref.journaling = false
			case k < 78:
				snaps = append(snaps, m.Snapshot())
			case k < 82:
				if len(snaps) > 0 {
					snap := snaps[s.Intn(len(snaps))]
					m.Restore(snap)
					ref.words = mapOf(t, snap)
					ref.base = nil
				}
			case k < 86:
				d := delta()
				m.ApplyDelta(imageOf(d))
				ref.applyDelta(d)
				ref.base = nil
			case k < 94:
				// Half the time ask about the true delta from the base,
				// so EqualDelta's true answer is exercised too.
				d := delta()
				if s.Intn(2) == 0 {
					d = mapOf(t, m.Written())
				}
				got := m.EqualDelta(imageOf(d))
				if want := ref.equalDelta(d); got != want {
					t.Fatalf("seed %d op %d: EqualDelta = %v, want %v", seed, op, got, want)
				}
				if ref.base != nil {
					img := maps.Clone(ref.base)
					for a, v := range d {
						img[a] = v
					}
					if want := sortedHash(img) == sortedHash(ref.words); got != want {
						t.Fatalf("seed %d op %d: EqualDelta = %v, base+delta equality %v", seed, op, got, want)
					}
				}
			default:
				want := map[uint32]uint64{}
				for a := range ref.journal {
					want[a] = ref.words[a]
				}
				if got := mapOf(t, m.Written()); !maps.Equal(got, want) {
					t.Fatalf("seed %d op %d: Written = %v, want %v", seed, op, got, want)
				}
			}
			if m.Len() != len(ref.words) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, m.Len(), len(ref.words))
			}
			if op%50 == 0 {
				if got := mapOf(t, m.Snapshot()); !maps.Equal(got, ref.words) {
					t.Fatalf("seed %d op %d: Snapshot diverged from the model", seed, op)
				}
				if h := m.Hash(); h != sortedHash(ref.words) {
					t.Fatalf("seed %d op %d: Hash disagrees with the model's sorted encoding", seed, op)
				}
			}
		}
	}
}

// TestRestoreHostileImage restores an image of 2^17 collidingKeys
// addresses and bounds its time against an image of as many random
// addresses. Under a fixed hash the hostile image is one probe run,
// ~2^33 probes, seconds rather than milliseconds.
func TestRestoreHostileImage(t *testing.T) {
	const n = 1 << 17
	s := rng.New(1)
	hostile := make(map[uint32]uint64, n)
	for _, a := range collidingKeys(n) {
		hostile[a] = uint64(a) | 1
	}
	random := make(map[uint32]uint64, n)
	for len(random) < n {
		random[uint32(s.Uint64())] = 1
	}
	restore := func(words map[uint32]uint64) time.Duration {
		img := imageOf(words)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			New().Restore(img)
			best = min(best, time.Since(start))
		}
		return best
	}
	base, got := restore(random), restore(hostile)
	if got > 10*base+100*time.Millisecond {
		t.Fatalf("restoring %d colliding addresses took %v, %d random ones %v", n, got, n, base)
	}
}

// TestSparseFootprintBound stores 100 000 words 512 apart — one word
// per would-be page — and bounds the live heap: the memory must cost a
// few tens of bytes per word whatever the address pattern.
func TestSparseFootprintBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New()
	for i := uint32(0); i < 100_000; i++ {
		m.Store(i*512, uint64(i)+1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if m.Len() != 100_000 {
		t.Fatalf("Len = %d", m.Len())
	}
	if live >= 8<<20 {
		t.Fatalf("100000 sparse words hold %.2f MiB of live heap, bound 8 MiB", float64(live)/(1<<20))
	}
	runtime.KeepAlive(m)
}

// sortedHash is the canonical encoding written the plain way: sort the
// nonzero words' addresses, then FNV-1a over each little-endian address
// and value.
func sortedHash(img map[uint32]uint64) uint64 {
	addrs := make([]uint32, 0, len(img))
	for a := range img {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	h := fnv.New64a()
	var buf [12]byte
	for _, a := range addrs {
		if img[a] == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(buf[0:4], a)
		binary.LittleEndian.PutUint64(buf[4:12], img[a])
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestConcurrentHash hashes and snapshots memories of several sizes on
// several goroutines at once, so the recycled word buffers move between
// goroutines and sizes (run it under -race). Every hash and snapshot
// must match the serial one.
func TestConcurrentHash(t *testing.T) {
	s := rng.New(11)
	var mems []*Memory
	var snaps []Image
	var want []uint64
	for i := 0; i < 8; i++ {
		m := New()
		for k := 0; k < 50+400*i; k++ {
			m.Store(uint32(s.Uint64()), s.Uint64()|1)
		}
		mems, snaps, want = append(mems, m), append(snaps, m.Snapshot()), append(want, m.Hash())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i := range mems {
					k := (i + g) % len(mems)
					if mems[k].Hash() != want[k] || !slices.Equal(mems[k].Snapshot(), snaps[k]) {
						t.Errorf("goroutine %d: memory %d hashed differently from serial", g, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHashMatchesSortedEncoding checks Hash and Snapshot, which order
// words by radix sort, against sortedHash and a comparison sort on empty
// and one-word memories, random ones, 2^17 words spread over the whole
// address space, a hostile image of collidingKeys, and addresses that
// differ only in one byte (so the other passes are skipped). A memory
// restored from the image must hash the same.
func TestHashMatchesSortedEncoding(t *testing.T) {
	s := rng.New(7)
	images := map[string]map[uint32]uint64{
		"empty": {},
		"one":   {0xdeadbeef: 3},
	}
	random := map[uint32]uint64{}
	for len(random) < 5000 {
		random[uint32(s.Uint64())>>s.Intn(32)] = s.Uint64()
	}
	random[0] = 0 // a zero entry, which Store and Restore must skip
	images["random"] = random
	sparse := map[uint32]uint64{}
	for i := uint32(0); i < 1<<17; i++ {
		sparse[i*(1<<15)+uint32(s.Intn(1<<15))] = s.Uint64() | 1
	}
	images["sparse"] = sparse
	hostile := map[uint32]uint64{}
	for _, a := range collidingKeys(1 << 17) {
		hostile[a] = uint64(a) | 1
	}
	images["hostile"] = hostile
	for _, shift := range []int{0, 8, 16, 24} {
		img := map[uint32]uint64{}
		for b := uint32(0); b < 256; b += 3 {
			img[0x5a5a5a5a&^(0xff<<shift)|b<<shift] = uint64(b) + 1
		}
		images[fmt.Sprintf("byte%d", shift)] = img
	}
	for name, img := range images {
		want := sortedHash(img)
		m := New()
		for a, v := range img {
			m.Store(a, v)
		}
		if got := m.Hash(); got != want {
			t.Errorf("%s: Hash %#x, sorted encoding %#x", name, got, want)
		}
		nonzero := maps.Clone(img)
		maps.DeleteFunc(nonzero, func(_ uint32, v uint64) bool { return v == 0 })
		if got := m.Snapshot(); !slices.Equal(got, imageOf(nonzero)) {
			t.Errorf("%s: Snapshot is not the sorted nonzero words", name)
		}
		r := New()
		r.Restore(imageOf(img))
		if got := r.Hash(); got != want {
			t.Errorf("%s: restored Hash %#x, sorted encoding %#x", name, got, want)
		}
	}
}

// benchFootprint is BenchmarkMemory's working-set size in words.
const benchFootprint = 1 << 16

var benchSink uint64

// BenchmarkMemory measures the functional memory at a 64k-word
// footprint of uniformly random addresses: loads that hit and miss, an
// overwriting store, and the canonical hash.
func BenchmarkMemory(b *testing.B) {
	s := rng.New(1)
	m := New()
	addrs := make([]uint32, 0, benchFootprint)
	for len(addrs) < benchFootprint {
		a := uint32(s.Uint64())
		if m.Load(a) == 0 {
			m.Store(a, s.Uint64()|1)
			addrs = append(addrs, a)
		}
	}
	misses := make([]uint32, 0, benchFootprint)
	for len(misses) < benchFootprint {
		if a := uint32(s.Uint64()); m.Load(a) == 0 {
			misses = append(misses, a)
		}
	}
	b.Run("load-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += m.Load(addrs[i%benchFootprint])
		}
	})
	b.Run("load-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += m.Load(misses[i%benchFootprint])
		}
	})
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Store(addrs[i%benchFootprint], uint64(i)|1)
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += m.Hash()
		}
	})
}

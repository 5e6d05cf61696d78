package flat

import (
	"math"
	"runtime"
	"testing"
)

// check compares t against the reference map ref: length, every
// reference entry readable, and Each visiting exactly the reference
// entries once.
func check(t *testing.T, tab *Table, ref map[uint32]uint64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d,%v, want %d,true", k, got, ok, want)
		}
	}
	seen := make(map[uint32]bool, len(ref))
	tab.Each(func(k uint32, v uint64) {
		if seen[k] {
			t.Fatalf("Each visited %#x twice", k)
		}
		seen[k] = true
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("Each(%#x) = %d, reference %d,%v", k, v, want, ok)
		}
	})
	if len(seen) != len(ref) {
		t.Fatalf("Each visited %d entries, want %d", len(seen), len(ref))
	}
}

// run applies ops, decoded from data five bytes at a time (one opcode
// byte, a four-byte key), to a Table and a reference map, checking the
// two agree after every operation. Keys are folded into a small range
// or a single probe run often enough that collisions, backward shifts
// and growth all happen on short inputs, and the run of colliders is
// long enough to switch the table to mixed hashing.
func run(t *testing.T, tab *Table, data []byte) {
	ref := make(map[uint32]uint64)
	check(t, tab, ref)
	for len(data) >= 5 {
		op := data[0]
		k := uint32(data[1]) | uint32(data[2])<<8 | uint32(data[3])<<16 | uint32(data[4])<<24
		data = data[5:]
		switch op >> 6 {
		case 0:
			k &= 0x3f
		case 1:
			k = collider(k % numColliders)
		}
		switch op % 8 {
		case 0, 1, 2:
			p, ins := tab.Ptr(k)
			_, had := ref[k]
			if ins == had {
				t.Fatalf("Ptr(%#x) inserted=%v, reference had=%v", k, ins, had)
			}
			if *p != ref[k] {
				t.Fatalf("Ptr(%#x) = %d, want %d", k, *p, ref[k])
			}
			*p += uint64(op) + 1
			ref[k] = *p
		case 3, 4:
			got, ok := tab.Get(k)
			want, had := ref[k]
			if ok != had || got != want {
				t.Fatalf("Get(%#x) = %d,%v, want %d,%v", k, got, ok, want, had)
			}
		case 5, 6:
			_, had := ref[k]
			if got := tab.Delete(k); got != had {
				t.Fatalf("Delete(%#x) = %v, want %v", k, got, had)
			}
			delete(ref, k)
		case 7:
			if op&0x20 != 0 {
				tab.Reset()
				clear(ref)
			}
			check(t, tab, ref)
		}
	}
	check(t, tab, ref)
}

// testMul fixes the hash key of the tables tests build with testTable:
// the 64-bit golden-ratio multiplier, with add 0. Knowing the key, a
// test can pick keys that share one probe run (collider).
const testMul = 0x9E3779B97F4A7C15

// testTable returns an empty table whose hash key is testMul.
func testTable() *Table { return &Table{mul: testMul} }

// numColliders is how many colliders run draws on: twice maxProbe, so
// a table holding most of them places one past maxProbe.
const numColliders = 2 * maxProbe

// colliders holds the keys whose home slot in a 16-slot testTable is
// slot 0, in increasing order, so small tables see long probe runs.
var colliders = func() []uint32 {
	probe := testTable()
	probe.grow()
	var keys []uint32
	for k := uint32(0); len(keys) < numColliders; k++ {
		if probe.home(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}()

// collider returns the i-th collider.
func collider(i uint32) uint32 { return colliders[i] }

func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 5, 1, 0, 0, 0, 7, 0, 0, 0, 0})
	f.Add([]byte{0x40, 0, 0, 0, 0, 0x40, 1, 0, 0, 0, 0x40, 2, 0, 0, 0, 0x45, 0, 0, 0, 0, 0x43, 2, 0, 0, 0})
	f.Add([]byte{0x80, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0, 0, 0xa7, 0, 0, 0, 0, 0x83, 0xff, 0xff, 0xff, 0xff})
	// Every collider, then a delete and a check: the table switches to
	// mixed hashing on the way.
	var all []byte
	for i := byte(0); i < numColliders; i++ {
		all = append(all, 0x40, i, 0, 0, 0)
	}
	f.Add(append(all, 0x45, 3, 0, 0, 0, 0x47, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		run(t, testTable(), data)
	})
}

// TestProbeRunDeletes deletes from the middle of one long probe run, in
// every order of a small run, and checks the survivors stay reachable.
func TestProbeRunDeletes(t *testing.T) {
	keys := []uint32{collider(0), collider(1), collider(2), collider(3), collider(4)}
	for first := range keys {
		tab := testTable()
		ref := make(map[uint32]uint64)
		for i, k := range keys {
			p, _ := tab.Ptr(k)
			*p = uint64(i + 1)
			ref[k] = uint64(i + 1)
		}
		for i := range keys {
			k := keys[(first+i)%len(keys)]
			tab.Delete(k)
			delete(ref, k)
			check(t, tab, ref)
		}
		// Reinsert after the run is gone.
		p, ins := tab.Ptr(keys[first])
		if !ins || *p != 0 {
			t.Fatalf("reinsert after delete: inserted=%v value=%d", ins, *p)
		}
	}
}

func TestExtremeKeysAndGrowth(t *testing.T) {
	var tab Table
	ref := make(map[uint32]uint64)
	for i := uint32(0); i < 5000; i++ {
		for _, k := range []uint32{i, math.MaxUint32 - i, i * 0x10001} {
			p, _ := tab.Ptr(k)
			*p = uint64(k) + 1
			ref[k] = uint64(k) + 1
		}
	}
	check(t, &tab, ref)
	if len(tab.slots) < 2*tab.Len() {
		t.Fatalf("load factor above 1/2: %d entries in %d slots", tab.Len(), len(tab.slots))
	}
	for k := range ref {
		if k%3 == 0 {
			tab.Delete(k)
			delete(ref, k)
		}
	}
	check(t, &tab, ref)
}

// TestGenerationWraparound starts the generation just below its wrap so
// Reset crosses zero: entries stamped in old generations — here keys
// 100..105, left stamped with generation 1 — must not come back to life
// when the generation count restarts.
func TestGenerationWraparound(t *testing.T) {
	var tab Table
	for k := uint32(100); k < 106; k++ {
		p, _ := tab.Ptr(k)
		*p = 1
	}
	tab.Reset()
	tab.gen = math.MaxUint32 - 2
	ref := make(map[uint32]uint64)
	for round := 0; round < 6; round++ {
		for i := uint32(0); i < 6; i++ {
			k := i*7 + uint32(round)
			p, _ := tab.Ptr(k)
			*p = uint64(round) + 1
			ref[k] = uint64(round) + 1
		}
		check(t, &tab, ref)
		tab.Reset()
		clear(ref)
		check(t, &tab, ref)
		if tab.gen == 0 {
			t.Fatal("generation 0 is reserved for empty slots")
		}
	}
	for i := uint32(0); i < 106; i++ {
		if _, ok := tab.Get(i); ok {
			t.Fatalf("key %d survived Reset", i)
		}
	}
}

// fibonacciRun returns n keys whose products with the 32-bit golden
// ratio are consecutive: an unkeyed Fibonacci hash, (k·0x9E3779B9 mod
// 2^32) >> shift, puts them all in one probe run.
func fibonacciRun(n int) []uint32 {
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

// meanDisplacement inserts keys into tab and returns the mean distance,
// in slots, from each entry's home to where it sits: the extra probes
// a lookup of it costs.
func meanDisplacement(tab *Table, keys []uint32) float64 {
	for _, k := range keys {
		tab.Ptr(k)
	}
	total := 0
	for j := range tab.slots {
		if s := &tab.slots[j]; s.gen == tab.gen {
			total += int((uint32(j) - tab.home(s.key)) & tab.mask)
		}
	}
	return float64(total) / float64(tab.Len())
}

// TestHostileKeysSpread checks that keys chosen against a fixed hash do
// not pile up in a keyed table. fibonacciRun's 2^17 keys would sit in
// one probe run under an unkeyed Fibonacci hash, so inserting them from
// an uploaded image would cost ~2^33 probes; a random key must spread
// them, and the word-strided and consecutive addresses programs use,
// to under a few extra probes per entry on average over fresh keys.
func TestHostileKeysSpread(t *testing.T) {
	const n, trials = 1 << 17, 8
	strided := make([]uint32, n)
	consecutive := make([]uint32, n)
	for i := range strided {
		strided[i] = uint32(i) * 512
		consecutive[i] = uint32(i)
	}
	for name, keys := range map[string][]uint32{
		"fibonacci-run": fibonacciRun(n),
		"stride-512":    strided,
		"consecutive":   consecutive,
	} {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			sum += meanDisplacement(new(Table), keys)
		}
		if d := sum / trials; d > 4 {
			t.Errorf("%s: mean displacement %.2f slots averaged over %d tables, want at most 4", name, d, trials)
		}
	}
}

// TestLongProbeSwitchesToMixedHash inserts keys that all share a home
// under a known key: the insert that lands more than maxProbe slots
// past its home must switch the table to mixed hashing, which spreads
// the run within the table's own slot array, and every entry must stay
// reachable.
func TestLongProbeSwitchesToMixedHash(t *testing.T) {
	tab := testTable()
	tab.rehash(1 << 12)
	ref := make(map[uint32]uint64)
	for k := uint32(0); len(ref) < 2*maxProbe; k++ {
		if tab.home(k) == 0 {
			ref[k] = uint64(k) + 1
		}
	}
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k, v := range ref {
		p, _ := tab.Ptr(k)
		*p = v
		if i++; tab.mixed != (i > maxProbe+1) {
			t.Fatalf("after %d colliding inserts mixed = %v", i, tab.mixed)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("switching to mixed hashing made %d allocations, want none", n)
	}
	check(t, tab, ref)
	if d := meanDisplacement(tab, nil); d > 1 {
		t.Fatalf("mixed hash left mean displacement %.2f", d)
	}
}

// TestTablesDrawTheirOwnKey checks that each table keys its hash with
// fresh random bits, so no key set can be chosen against them in
// advance.
func TestTablesDrawTheirOwnKey(t *testing.T) {
	var a, b Table
	a.Ptr(1)
	b.Ptr(1)
	if a.mul&1 == 0 || b.mul&1 == 0 {
		t.Fatalf("multipliers %#x, %#x: want odd", a.mul, b.mul)
	}
	if a.mul == b.mul || a.add == b.add {
		t.Fatalf("two tables drew the same hash key (%#x, %#x)", a.mul, a.add)
	}
}

// TestRekeyRenewsKey checks that Rekey empties a table, keeps its
// capacity, draws a new key and clears mixed hashing, and that the table
// then holds a fresh set of entries like a new one — also for a table
// that had switched to mixed hashing.
func TestRekeyRenewsKey(t *testing.T) {
	var empty Table
	empty.Rekey()
	if empty.slots != nil || empty.mul != 0 {
		t.Fatal("Rekey of an unallocated table allocated or drew a key")
	}

	src := testTable()
	for i := uint32(0); i < 2*maxProbe; i++ {
		p, _ := src.Ptr(collider(i))
		*p = uint64(i)
	}
	if !src.mixed {
		t.Fatal("colliding keys did not switch the table to mixed hashing")
	}
	for round := 0; round < 3; round++ {
		slots, mul, add := len(src.slots), src.mul, src.add
		src.Rekey()
		if src.Len() != 0 || len(src.slots) != slots {
			t.Fatalf("round %d: Rekey left %d entries in %d slots, had %d slots", round, src.Len(), len(src.slots), slots)
		}
		if src.mul == mul || src.add == add || src.mul&1 == 0 {
			t.Fatalf("round %d: Rekey kept or spoiled the hash key (%#x, %#x)", round, src.mul, src.add)
		}
		if src.mixed {
			t.Fatalf("round %d: Rekey left the table mixed", round)
		}
		ref := map[uint32]uint64{}
		for i := 0; i < 1000; i++ {
			k := uint32(i*0x10001 + round)
			p, _ := src.Ptr(k)
			*p = uint64(i) + 1
			ref[k] = uint64(i) + 1
		}
		check(t, src, ref)
	}
}

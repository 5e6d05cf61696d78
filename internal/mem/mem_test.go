package mem

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"delorean/internal/flat"
	"delorean/internal/rng"
)

func TestZeroDefault(t *testing.T) {
	m := New()
	if m.Load(12345) != 0 {
		t.Fatal("unwritten word not zero")
	}
}

func TestStoreLoad(t *testing.T) {
	m := New()
	m.Store(7, 42)
	if m.Load(7) != 42 {
		t.Fatalf("Load = %d, want 42", m.Load(7))
	}
	m.Store(7, 0)
	if m.Load(7) != 0 {
		t.Fatal("overwrite with zero failed")
	}
	if m.Len() != 0 {
		t.Fatal("zero store left a materialized entry")
	}
}

func TestHashIgnoresWriteHistory(t *testing.T) {
	a, b := New(), New()
	a.Store(1, 10)
	a.Store(2, 20)
	a.Store(3, 5)
	a.Store(3, 0) // back to zero

	b.Store(2, 20)
	b.Store(1, 10)
	if a.Hash() != b.Hash() {
		t.Fatal("hashes differ for identical contents")
	}
}

func TestHashDetectsDifference(t *testing.T) {
	a, b := New(), New()
	a.Store(1, 10)
	b.Store(1, 11)
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on differing contents")
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	m.Store(1, 100)
	m.Store(2, 200)
	snap := m.Snapshot()
	m.Store(1, 999)
	m.Store(3, 300)
	m.Restore(snap)
	if m.Load(1) != 100 || m.Load(2) != 200 || m.Load(3) != 0 {
		t.Fatalf("restore failed: %d %d %d", m.Load(1), m.Load(2), m.Load(3))
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	m := New()
	m.Store(5, 50)
	snap := m.Snapshot()
	m.Store(5, 51)
	if snap[0] != (Word{5, 50}) {
		t.Fatal("snapshot mutated by later store")
	}
}

func TestEqualDelta(t *testing.T) {
	m := New()
	m.Store(1, 10)
	m.Store(2, 20)
	m.Store(3, 30)
	m.BeginJournal()
	m.Store(2, 99) // changed, matches the delta below
	m.Store(3, 0)  // became zero, matches the delta
	m.Store(4, 40) // scratch write...
	m.Store(4, 0)  // ...restored to its base value (zero)
	m.Store(5, 77) // scratch write...
	m.Store(5, 77) // ...double write keeps the first-seen base
	m.Store(5, 0)  // ...restored
	delta := Image{{2, 99}, {3, 0}}
	if !m.EqualDelta(delta) {
		t.Fatal("EqualDelta rejected base+delta state")
	}
	// A delta word the execution never wrote: the word still holds its
	// base value, which differs from the delta's claim.
	if m.EqualDelta(Image{{1, 11}, {2, 99}, {3, 0}}) {
		t.Fatal("EqualDelta missed an unapplied delta word")
	}
	// A write outside the delta that was not restored.
	m.Store(6, 60)
	if m.EqualDelta(delta) {
		t.Fatal("EqualDelta missed a stray write")
	}
	m.Store(6, 0)
	if !m.EqualDelta(delta) {
		t.Fatal("EqualDelta rejected state after stray write was undone")
	}
}

// Property: EqualDelta(delta) agrees with materializing base+delta and
// comparing canonical hashes, for random write sequences journaled on
// top of a random base.
func TestQuickEqualDeltaMatchesHash(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		m := New()
		for i := 0; i < 100; i++ {
			m.Store(uint32(s.Intn(32)), s.Uint64()%4)
		}
		base := mapOf(t, m.Snapshot())
		m.BeginJournal()
		for i := 0; i < 100; i++ {
			m.Store(uint32(s.Intn(32)), s.Uint64()%4)
		}
		delta := map[uint32]uint64{}
		for i := 0; i < 20; i++ {
			delta[uint32(s.Intn(32))] = s.Uint64() % 4
		}
		img := maps.Clone(base)
		maps.Copy(img, delta)
		return m.EqualDelta(imageOf(delta)) == (m.Hash() == sortedHash(img))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaMatchesRestore(t *testing.T) {
	s := rng.New(7)
	m, ref := New(), New()
	for i := 0; i < 100; i++ {
		a, v := uint32(s.Intn(32)), s.Uint64()%4
		m.Store(a, v)
		ref.Store(a, v)
	}
	delta := map[uint32]uint64{3: 0, 9: 900, 31: 1}
	m.ApplyDelta(imageOf(delta))
	img := mapOf(t, ref.Snapshot())
	maps.Copy(img, delta)
	ref.Restore(imageOf(img))
	if m.Hash() != ref.Hash() {
		t.Fatal("ApplyDelta diverged from Restore of the folded image")
	}
}

// Property: restore(snapshot(m)) preserves Hash under arbitrary
// interleaved mutation.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		m := New()
		for i := 0; i < 200; i++ {
			m.Store(uint32(s.Intn(64)), s.Uint64()%5)
		}
		want := m.Hash()
		snap := m.Snapshot()
		for i := 0; i < 200; i++ {
			m.Store(uint32(s.Intn(64)), s.Uint64())
		}
		m.Restore(snap)
		return m.Hash() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// tableKey reads a table's hash key and mixed flag, which flat does not
// export: the recycling tests check that a reused table is rekeyed.
func tableKey(tab *flat.Table) (mul, add uint64, mixed bool) {
	v := reflect.ValueOf(tab).Elem()
	return v.FieldByName("mul").Uint(), v.FieldByName("add").Uint(), v.FieldByName("mixed").Bool()
}

// homeKeys returns n addresses whose home slot in a table of 128 or
// fewer slots under key (mul, add) is slot 0, so storing them forces
// the table into mixed hashing.
func homeKeys(mul, add uint64, n int) []uint32 {
	var keys []uint32
	for k := uint32(1 << 20); len(keys) < n; k++ {
		if (uint64(k)*mul+add)>>57 == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// mixedMemory returns a memory whose word table switched to mixed
// hashing under a colliding address set.
func mixedMemory(t *testing.T) *Memory {
	t.Helper()
	m := New()
	m.Store(1, 1) // allocates the table and draws its key
	mul, add, _ := tableKey(&m.words)
	for i, a := range homeKeys(mul, add, 40) {
		m.Store(a, uint64(i)+2)
	}
	if _, _, mixed := tableKey(&m.words); !mixed {
		t.Fatal("colliding addresses did not switch the table to mixed hashing")
	}
	return m
}

// A memory handed back by Put comes out of Get empty, with no journal,
// journaling off and both tables under new keys; Restore draws a new
// key every time as well.
func TestGetRecycledMemory(t *testing.T) {
	m := mixedMemory(t)
	m.BeginJournal()
	m.Store(7, 7)
	m.Store(1, 0)
	for round := 0; round < 3; round++ {
		wmul, wadd, _ := tableKey(&m.words)
		jmul, jadd, _ := tableKey(&m.journal)
		Put(m)
		r := Get()
		if r != m {
			t.Fatal("Get did not hand back the memory just put")
		}
		if r.Len() != 0 || r.journal.Len() != 0 || r.journaling {
			t.Fatalf("round %d: recycled memory has %d words, %d journal entries, journaling %v",
				round, r.Len(), r.journal.Len(), r.journaling)
		}
		if mul, add, mixed := tableKey(&r.words); mul == wmul || add == wadd || mixed {
			t.Fatalf("round %d: recycled word table kept its key or mixed hashing", round)
		}
		if mul, add, _ := tableKey(&r.journal); mul == jmul || add == jadd {
			t.Fatalf("round %d: recycled journal kept its key", round)
		}
		r.Store(9, 9)
		if w := r.Written(); len(w) != 0 {
			t.Fatalf("round %d: recycled memory journals without BeginJournal: %v", round, w)
		}
		r.BeginJournal()
		r.Store(uint32(round)+10, 1)
		m = r
	}
	img := m.Snapshot()
	for i := 0; i < 3; i++ {
		mul, add, _ := tableKey(&m.words)
		m.Restore(img)
		if nmul, nadd, _ := tableKey(&m.words); nmul == mul || nadd == add {
			t.Fatalf("Restore %d kept the hash key", i)
		}
	}
}

// Restoring an image into a recycled memory, one whose table grew and
// went mixed under a colliding image first, gives the memory a fresh
// memory restored from the same image has: the same Hash and Snapshot.
func TestRestoreRecycledMatchesFresh(t *testing.T) {
	s := rng.New(5)
	hostile := mixedMemory(t)
	images := []Image{hostile.Snapshot(), {}}
	for i := 0; i < 12; i++ {
		words := map[uint32]uint64{}
		for n := int(s.Uint64() % 3000); len(words) < n; {
			words[uint32(s.Uint64())&0xFFFFF] = s.Uint64() | 1
		}
		images = append(images, imageOf(words))
	}
	images = append(images, images[0])
	Put(hostile)
	for i, img := range images {
		m := Get()
		m.Store(uint32(i), 3) // Restore must drop whatever is there
		m.Restore(img)
		fresh := New()
		fresh.Restore(img)
		if m.Hash() != fresh.Hash() || !slices.Equal(m.Snapshot(), fresh.Snapshot()) {
			t.Fatalf("image %d (%d words): recycled memory differs from a fresh one", i, len(img))
		}
		Put(m)
	}
}

package lz77

import (
	"bytes"
	"testing"
)

// incompressible builds a deterministic byte sequence with no 3-byte
// repeats in range, so the match-finder's skip acceleration engages.
func incompressible(n int) []byte {
	b := make([]byte, n)
	x := uint32(0x12345)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// FuzzLZ77RoundTrip checks the two properties the log-compression model
// must hold under arbitrary input: Compress→Decompress is the identity,
// and Decompress of an arbitrary byte stream (treated as a token stream)
// returns data or ErrCorrupt — it never panics.
func FuzzLZ77RoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("abcabcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x13, 0x37})
	// Match-finder stress shapes: a run longer than the 258-byte match
	// cap, a 3-byte match only the hash3 probe can see, a lazy-match bait
	// (short match followed immediately by a longer one), and an
	// incompressible prefix long enough to engage skip acceleration
	// before a late repeat.
	f.Add(bytes.Repeat([]byte("x"), 1024))
	f.Add([]byte("abcZZZZabcd"))
	f.Add([]byte("abXcdefgYabcdefgZabcdefg"))
	f.Add(append(incompressible(256), []byte("abcdefghabcdefgh")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		packed, bits := Compress(data)
		out, err := Decompress(packed, bits, len(data))
		if err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(data), len(out))
		}
		// One byte short of the true length must trip the output cap.
		if len(data) > 0 {
			if _, err := Decompress(packed, bits, len(data)-1); err != ErrCorrupt {
				t.Fatalf("limit %d on a %d-byte stream: err = %v, want ErrCorrupt", len(data)-1, len(data), err)
			}
		}
		if got := CompressedBits(data); got != bits {
			t.Fatalf("CompressedBits = %d, Compress packed %d bits", got, bits)
		}

		// The input reinterpreted as a token stream must decode or fail
		// cleanly (ErrCorrupt or a bitio read error) — corrupted hardware
		// logs reach this path during replay. Only a panic is a bug.
		_, _ = Decompress(data, 8*len(data), 1<<20)
	})
}

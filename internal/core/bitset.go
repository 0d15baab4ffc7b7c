package core

import "math/bits"

// Bitset helpers for the compiled schema and its search (compile.go,
// csearch.go).
// A set over n interned category ids is a []uint64 of bitWords(n) words;
// an n×n relation (reachability, adjacency) is a flat []uint64 of
// n*bitWords(n) words sliced into per-source rows. Ids are int32 because
// they index both words (id>>6) and bits (id&63) without conversion
// noise, and a schema never approaches 2^31 categories.

// bitWords returns the number of 64-bit words needed for n bits.
func bitWords(n int) int { return (n + 63) / 64 }

func bitSet(b []uint64, i int32)       { b[i>>6] |= 1 << uint(i&63) }
func bitClear(b []uint64, i int32)     { b[i>>6] &^= 1 << uint(i&63) }
func bitTest(b []uint64, i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// bitZero clears every word of b.
func bitZero(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

// bitAnyAnd reports whether a ∩ b is non-empty.
func bitAnyAnd(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// bitForEach calls fn for every set bit of b in ascending order.
func bitForEach(b []uint64, fn func(int32)) {
	for w, word := range b {
		base := int32(w) << 6
		for word != 0 {
			fn(base + int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// bitCount returns |b|.
func bitCount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

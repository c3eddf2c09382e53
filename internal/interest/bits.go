package interest

// bitset is a little-endian packed bit vector keyed by interned keyword ID.
// The struct-of-arrays table keeps three of them (present, direct, sat);
// the exchange round keeps one more per endpoint (shared). All of the
// exchange round's set algebra — "which of my rows does any connected peer
// hold", "which rows are alive on both sides" — runs 64 rows per word on
// these instead of probing per-row pointers.
type bitset []uint64

// test reports whether bit id is set; out-of-range bits read as clear.
func (b bitset) test(id int32) bool {
	w := int(id >> 6)
	return w < len(b) && b[w]&(1<<(uint(id)&63)) != 0
}

// set sets bit id, growing the word slice as needed.
func (b *bitset) set(id int32) {
	w := int(id >> 6)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(id) & 63)
}

// clear clears bit id; clearing past the end is a no-op.
func (b bitset) clear(id int32) {
	if w := int(id >> 6); w < len(b) {
		b[w] &^= 1 << (uint(id) & 63)
	}
}

// word returns the wi'th word, reading out-of-range words as empty — the
// masks compared during an exchange are sized to different tables.
func (b bitset) word(wi int) uint64 {
	if wi < len(b) {
		return b[wi]
	}
	return 0
}

// reset returns b zeroed and sized to n words, reusing its backing array.
func (b bitset) reset(n int) bitset {
	if cap(b) < n {
		return make(bitset, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

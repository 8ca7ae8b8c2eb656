package core

// bitset is a multi-word set of transaction indices. It replaces the
// single-uint64 mask that used to cap the serialization search at 63
// transactions: the search now scales to histories with arbitrarily many
// transactions (the node budget, not the representation, is the limit).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// covers reports whether every member of other is also in b. The two
// bitsets must have the same word length.
func (b bitset) covers(other bitset) bool {
	for w, bits := range other {
		if bits&^b[w] != 0 {
			return false
		}
	}
	return true
}

// equal reports whether b and other contain exactly the same members.
// The two bitsets must have the same word length.
func (b bitset) equal(other bitset) bool {
	for w, bits := range other {
		if bits != b[w] {
			return false
		}
	}
	return true
}

// appendKey appends the raw words of b to dst, producing a fixed-width
// prefix for memoization keys.
func (b bitset) appendKey(dst []byte) []byte {
	for _, w := range b {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

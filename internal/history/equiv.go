package history

// Equivalent reports whether h ≡ h2: both histories contain the same
// transactions, and every transaction issues the same invocation events
// and receives the same response events in both (H|Ti = H2|Ti for every
// Ti). Equivalent histories differ only in the relative position of
// events of different transactions.
//
// It groups h's events by transaction once and walks h2 against the
// groups, so it runs in O(|h| + |h2|).
func Equivalent(h, h2 History) bool {
	if len(h) != len(h2) {
		return false
	}
	// Transaction slot s (in order of first event in h) owns the event
	// indexes group[at[s]:end[s]] of h, in order. end[s] first counts the
	// slot's events, then is its group's start, and the fill below moves
	// it to the group's end.
	slot := make(map[TxID]int)
	var end []int
	ints := make([]int, 2*len(h))
	of, group := ints[:len(h)], ints[len(h):]
	for k, e := range h {
		s, ok := slot[e.Tx]
		if !ok {
			s = len(end)
			slot[e.Tx] = s
			end = append(end, 0)
		}
		of[k] = s
		end[s]++
	}
	at := make([]int, len(end))
	for s, sum := 0, 0; s < len(end); s++ {
		at[s] = sum
		sum += end[s]
		end[s] = at[s]
	}
	for k, s := range of {
		group[end[s]] = k
		end[s]++
	}
	// Every event of h2 must be the next unmatched event of its
	// transaction in h. With equal lengths, no group left short means
	// every group was used up.
	for _, e := range h2 {
		s, ok := slot[e.Tx]
		if !ok || at[s] == end[s] || h[group[at[s]]] != e {
			return false
		}
		at[s]++
	}
	return true
}

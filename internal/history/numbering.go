package history

import "slices"

// linearMax is the number of keys up to which a numbering finds a key
// by scanning its list instead of hashing: histories rarely have more
// than a handful of transactions or objects, and below this count the
// scan costs less than a map.
const linearMax = 32

// numbering gives keys dense ids in the order they first appear: keys[id]
// is the key numbered id. Up to linearMax keys, find scans the list;
// above that, idx maps every key to its id. It is the one transaction
// and object index of this package: the Appender's transaction and
// object lists, Transactions, Objects and every txTable are numberings.
// The zero numbering is empty and ready for use.
type numbering[K comparable] struct {
	keys []K
	// idx holds keys[:len(idx)]: every key once the list has crossed
	// linearMax, none below it.
	idx map[K]int32
}

// newNumbering returns an empty numbering with room for min(n,
// linearMax) keys.
func newNumbering[K comparable](n int) numbering[K] {
	return numbering[K]{keys: make([]K, 0, min(n, linearMax))}
}

// find returns k's id, or -1 when k has none.
func (n *numbering[K]) find(k K) int32 {
	if len(n.keys) > linearMax {
		if id, ok := n.idx[k]; ok {
			return id
		}
		return -1
	}
	return int32(slices.Index(n.keys, k))
}

// push numbers k, which find did not find, and returns its id.
func (n *numbering[K]) push(k K) int32 {
	id := int32(len(n.keys))
	n.keys = append(n.keys, k)
	if len(n.keys) > linearMax {
		if n.idx == nil {
			n.idx = make(map[K]int32)
		}
		for j := len(n.idx); j < len(n.keys); j++ {
			n.idx[n.keys[j]] = int32(j)
		}
	}
	return id
}

// add returns k's id, numbering k first if it has none.
func (n *numbering[K]) add(k K) int32 {
	if id := n.find(k); id >= 0 {
		return id
	}
	return n.push(k)
}

// dropFirst forgets the first d keys and renumbers the rest from 0, in
// the same order.
func (n *numbering[K]) dropFirst(d int) {
	kept := len(n.keys) - d
	if kept > linearMax {
		for _, k := range n.keys[:d] {
			delete(n.idx, k)
		}
	} else {
		clear(n.idx)
	}
	n.keys = n.keys[:copy(n.keys, n.keys[d:])]
	if kept > linearMax {
		for id, k := range n.keys {
			n.idx[k] = int32(id)
		}
	}
}

// reset forgets every key, keeping the list's and the map's storage.
func (n *numbering[K]) reset() {
	n.keys = n.keys[:0]
	clear(n.idx)
}

// txTable numbers the transactions of one history in first-event order
// and keeps, for each, its span and the kind of its last event — the
// three facts every per-transaction notion of §4 is built from: H|Ti's
// status is its last event's kind, ≺H compares spans, and a
// transaction's completion depends on its last event alone.
type txTable struct {
	txs   numbering[TxID]
	spans []Span
	last  []Kind
}

// table builds h's transaction table in one pass over h. Its slices
// start with the room newNumbering gives len(h) keys, and each event
// tries the previous event's transaction before the numbering.
func (h History) table() txTable {
	tab := txTable{txs: newNumbering[TxID](len(h))}
	tab.spans = make([]Span, 0, cap(tab.txs.keys))
	tab.last = make([]Kind, 0, cap(tab.txs.keys))
	t := int32(-1)
	for i := range h {
		e := &h[i]
		if t < 0 || tab.txs.keys[t] != e.Tx {
			if t = tab.txs.find(e.Tx); t < 0 {
				t = tab.begin(e.Tx, i)
			}
		}
		tab.record(t, i, e.Kind)
	}
	return tab
}

// begin numbers transaction tx, whose first event is at position i, and
// returns its index.
func (tab *txTable) begin(tx TxID, i int) int32 {
	tab.spans = append(tab.spans, Span{First: i})
	tab.last = append(tab.last, KindRet)
	return tab.txs.push(tx)
}

// record makes the event at position i, of kind k, transaction t's last
// event so far.
func (tab *txTable) record(t int32, i int, k Kind) {
	tab.spans[t].Last, tab.spans[t].Completed = i, completes(k)
	tab.last[t] = k
}

// precedes reports whether ti ≺ tj in the table's history.
func (tab *txTable) precedes(ti, tj TxID) bool {
	i, j := tab.txs.find(ti), tab.txs.find(tj)
	return i >= 0 && j >= 0 && tab.spans[i].Completed && tab.spans[i].Last < tab.spans[j].First
}

// where returns the transactions whose status satisfies keep, in
// first-event order; nil when none does.
func (tab *txTable) where(keep func(Status) bool) []TxID {
	var out []TxID
	for t, k := range tab.last {
		if keep(kindStatus(k)) {
			out = append(out, tab.txs.keys[t])
		}
	}
	return out
}

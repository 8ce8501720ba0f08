package chord

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"mlight/internal/dht"
)

// dist is a point or a clockwise distance on the identifier ring as three
// big-endian machine words. The last word holds the identifier's final four
// bytes in its top half and zeros below, so the words' arithmetic modulo
// 2^192 is the ring's modulo 2^160, and their order is the identifiers'.
type dist [3]uint64

func distOf(id dht.ID) dist {
	return dist{
		binary.BigEndian.Uint64(id[0:8]),
		binary.BigEndian.Uint64(id[8:16]),
		uint64(binary.BigEndian.Uint32(id[16:20])) << 32,
	}
}

// minus returns a − b around the ring.
func (a dist) minus(b dist) dist {
	lo, borrow := bits.Sub64(a[2], b[2], 0)
	mid, borrow := bits.Sub64(a[1], b[1], borrow)
	hi, _ := bits.Sub64(a[0], b[0], borrow)
	return dist{hi, mid, lo}
}

// less reports whether a < b.
func (a dist) less(b dist) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// unit is 1 as a dist.
var unit = dist{0, 0, 1 << 32}

// ahead reports whether x lies in (n, target): its key from n, as the
// table's, is below the target's. The top words' differences from n decide
// when x's is above zero and below the target's: a borrow from the lower
// words lowers either by at most one, and leaves x's the smaller when they
// meet.
func ahead(n, x, target *dht.ID) bool {
	top := binary.BigEndian.Uint64(n[:8])
	if d := binary.BigEndian.Uint64(x[:8]) - top; d != 0 && d < binary.BigEndian.Uint64(target[:8])-top {
		return true
	}
	c := distOf(*n)
	return distOf(*x).minus(c).minus(unit).less(distOf(*target).minus(c).minus(unit))
}

// farthest is the key of the table's own node, 2^160 − 1: no key a step
// compares against is above it, so a node never names itself as a next hop.
var farthest = dist{^uint64(0), ^uint64(0), ^uint64(1<<32 - 1)}

// hop is one node the routing table names, with what a step needs of it
// worked out when it is written: its key — its clockwise distance from the
// table's node, less one — and the step reply that names it, boxed once.
type hop struct {
	key   dist
	reply any // lookupStepResp{Next: the node}
}

// noHop fills an empty finger: it is never a next hop, like the node itself.
var noHop = hop{farthest, lookupStepResp{}}

func (h hop) ref() ref { return h.reply.(lookupStepResp).Next }

// span is a run of equal fingers, from finger lo up to the next span's lo.
type span struct {
	lo int
	hop
}

// table is one node's routing table: its fingers, each run of equal ones
// once, and what a lookup step reads, worked out from them and the
// successor list whenever either changes.
//
// Keys are target − n − 1, so that both of a step's tests are one compare.
// A target lies in (n, succs[0]] — Chord's Done, a full ring when succs[0] is
// n — exactly when its key is at most succs[0]'s, and a node lies strictly
// between n and the target exactly when its key is below the target's (a
// target equal to n is the whole ring less n).
//
// Otherwise the step's answer is the closest preceding node of Chord's scan:
// the first finger from the top that lies between n and the target, unless a
// successor lies strictly between that finger and the target, the last such
// successor then. A finger below a higher one at least as close to n is never
// the first, so of the fingers only the record lows of the scan can answer,
// and they come farthest first; the answer is then the farthest of them and of
// the successors that lie before the target, a tie keeping the finger, or the
// earlier successor. hops lists those candidates farthest first, a tie once,
// and a step returns the first that lies before the target.
type table struct {
	base    dist   // n + 1: a key is an identifier less base
	fingers []span // finger i is the last span whose lo ≤ i; neighbours differ
	last    dist   // succs[0]'s key
	done    any    // lookupStepResp{Done: true, Next: succs[0]}, or n alone
	next    any    // lookupStepResp{Next: succs[0]}: the answer when no hop helps
	hops    []hop  // record-low fingers and successors, key descending
}

// newTable is the table of a node that has joined nothing: every step is
// Done at self, and no finger is set.
func newTable(self ref) table {
	t := table{base: distOf(self.ID.AddPowerOfTwo(0)), fingers: []span{{0, noHop}}}
	t.setSuccs(self, nil)
	return t
}

// step answers a lookup step towards target.
//
//lint:hotpath
func (t *table) step(target dht.ID) any {
	k := distOf(target).minus(t.base)
	if !t.last.less(k) {
		return t.done
	}
	for i := range t.hops {
		if t.hops[i].key.less(k) {
			return t.hops[i].reply
		}
	}
	return t.next
}

// hopTo returns r's hop, reusing the reply of a hop the table already has.
func (t *table) hopTo(r ref) hop {
	if r.IsZero() {
		return noHop
	}
	key := distOf(r.ID).minus(t.base)
	for i := range t.fingers {
		if h := t.fingers[i].hop; h.key == key && h.ref() == r {
			return h
		}
	}
	for _, h := range t.hops {
		if h.key == key && h.ref() == r {
			return h
		}
	}
	return hop{key, lookupStepResp{Next: r}}
}

// spanAt returns the index of the span holding finger i.
func (t *table) spanAt(i int) int {
	k := len(t.fingers) - 1
	for t.fingers[k].lo > i {
		k--
	}
	return k
}

// setFinger makes finger i f. A write that only moves the border between two
// spans leaves the hops as they are; any other rebuilds them.
func (t *table) setFinger(i int, f ref, succs []ref) {
	k := t.spanAt(i)
	s := &t.fingers[k]
	if s.ref() == f {
		return
	}
	end := dht.IDBits
	if k+1 < len(t.fingers) {
		end = t.fingers[k+1].lo
	}
	switch {
	case i == s.lo && i+1 < end && k > 0 && t.fingers[k-1].ref() == f:
		s.lo++
		return
	case i == end-1 && i > s.lo && k+1 < len(t.fingers) && t.fingers[k+1].ref() == f:
		t.fingers[k+1].lo = i
		return
	}
	var buf [3]span
	parts := buf[:0]
	if s.lo < i {
		parts = append(parts, *s)
	}
	parts = append(parts, span{i, t.hopTo(f)})
	if i+1 < end {
		parts = append(parts, span{i + 1, s.hop})
	}
	t.fingers = slices.CompactFunc(slices.Replace(t.fingers, k, k+1, parts...),
		func(a, b span) bool { return a.reply == b.reply })
	t.rebuild(succs)
}

// fill sets every finger i to finger(i). It leaves the hops to the
// successor list's write that must follow (setSuccs), which rebuilds them.
func (t *table) fill(finger func(i int) ref) {
	t.fingers = t.fingers[:0]
	for i := range dht.IDBits {
		f := finger(i)
		if last := len(t.fingers) - 1; last >= 0 && t.fingers[last].ref() == f {
			continue
		}
		t.fingers = append(t.fingers, span{i, t.hopTo(f)})
	}
}

// setSuccs follows a new successor list; self answers every step of a node
// whose list is empty.
func (t *table) setSuccs(self ref, succs []ref) {
	if len(succs) == 0 {
		t.last, t.done, t.next = farthest, lookupStepResp{Done: true, Next: self}, nil
	} else {
		s := succs[0]
		t.last = distOf(s.ID).minus(t.base)
		if d, ok := t.done.(lookupStepResp); !ok || d.Next != s {
			t.done = lookupStepResp{Done: true, Next: s}
		}
		t.next = t.hopTo(s).reply
	}
	t.rebuild(succs)
}

// rebuild lists the hops a step reads: the record lows of the finger scan
// from the top, then each successor after every hop at least as far from n.
func (t *table) rebuild(succs []ref) {
	succHops := make([]hop, 0, SuccessorListLen)
	for _, s := range succs {
		succHops = append(succHops, t.hopTo(s))
	}
	hops, below := t.hops[:0], farthest
	for i := len(t.fingers) - 1; i >= 0; i-- {
		if h := t.fingers[i].hop; h.key.less(below) {
			hops, below = append(hops, h), h.key
		}
	}
	for _, h := range succHops {
		at := len(hops)
		for at > 0 && hops[at-1].key.less(h.key) {
			at--
		}
		if h.key != farthest && (at == 0 || hops[at-1].key != h.key) {
			hops = slices.Insert(hops, at, h)
		}
	}
	t.hops = hops
}

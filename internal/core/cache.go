package core

import (
	"sync"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// leafCache is a client-side LRU of recently resolved leaf labels — the
// lightweight lookup cache of Salah et al. (PAPERS.md) adapted to m-LIGHT's
// label space, and the same trick PHT's original implementation plays with
// its prefix cache. Every cached leaf λ is a §5 probe already answered, and
// it answers two questions about a point δ (view):
//
//   - hit: λ covers δ (its label is a prefix of δ's path label). The first
//     probe targets fmd(λ), so a repeat lookup on an unchanged index costs a
//     single verification probe instead of O(log D).
//   - miss: no cached leaf covers δ, but a cached leaf diverging from δ's
//     path at depth cp proved every path prefix through cp internal when it
//     was read. The search starts below the deepest such prefix and probes
//     first at the mean length of the cached leaves under it — the
//     neighbours' depth — then continues by the unchanged §5 rules.
//
// For a range query the same labels are a map of the tree under its LCA, and
// they plan the query's first round (tile).
//
// The cache stores only labels, never bucket contents, so it can suggest a
// wrong starting point after a split or merge but can never serve stale
// records: every answer is a probe just sent whose leaf covers δ. A stale hit
// (no bucket at the key, or one that does not cover δ) evicts the entry and
// falls back to the standard bounds; a stale bound (another
// client merged the prefix into a leaf) puts the leaf below lo, so the
// search ends in ErrNotFound unless a probe happens to name the leaf's key,
// and the lookup answers ErrNotFound with one unbounded search. The client's
// own splits and merges invalidate eagerly.
//
// An evicted leaf is not forgotten: it becomes a shape entry, the ghost
// entry of 2Q and ARC applied to the tree's shape. It leaves the LRU, so it
// is never a hit and cap still bounds the leaves that can hit, but it still
// proves its prefixes internal, which is what a miss's bound and a range's
// plan read. The shape entries wait in a FIFO of at most shapeFactor·cap
// labels; one is dropped when the FIFO overflows, when a leaf read above or
// below it contradicts it, when it is read again (it is a cached leaf once
// more), or by invalidate. A shape entry costs one 24-byte cell and its
// label in nodes, with the prefixes it adds there; at the 256-leaf cache of
// a dialed client over ~850 leaves shape entries cut a range query's rounds
// from 1.48–1.52 to 1.04–1.06 and an operation's DHT lookups from 2.35–2.37
// to 2.08–2.09 (tcp-cluster, seeds 1–5).
//
// The cached leaves and shape entries together form an antichain: adding a
// leaf drops the ones above and below it, which its being a leaf
// contradicts. nodes holds every cached leaf, every shape entry and every
// proper prefix of one (down to the root), each prefix with a tally of the
// cached leaves and shape entries below it; add, eviction, the FIFO,
// invalidate and contradicting reads keep the tally exact. The set is
// prefix-closed, so a scan up δ's path stops at the first label it does not
// hold.
//
// All methods are safe for concurrent use.
type leafCache struct {
	mu   sync.Mutex
	cap  int
	root int // length of the ordinary root label, m+1: the shortest leaf
	// cells holds the labels of the cached leaves and of the shape entries
	// in two circular doubly linked lists: cells[leafList] heads the LRU,
	// most recent first, and cells[shapeList] the FIFO, oldest first. A
	// removed label's cell goes to free and is reused.
	cells  []cell
	free   []int32
	leaves int // cached leaves
	shapes int // shape entries
	// nodes is keyed by a label's bits alone: every kd-tree label starts
	// with 0^m 1, so its leading one fixes its length.
	nodes map[uint64]cacheNode
}

// shapeFactor bounds the shape entries at shapeFactor·cap. On tcp-cluster's
// 256-leaf cache over ~850 leaves (seed 1), 4 leaves 1.06 range rounds a
// query and 2.09 DHT lookups an operation, as an unbounded memory does; 2
// leaves 1.10 and 2.11.
const shapeFactor = 4

// The heads of the two lists in leafCache.cells.
const (
	leafList  = 0
	shapeList = 1
)

// cell is one list cell of leafCache.cells.
type cell struct {
	label      bitlabel.Label
	prev, next int32
}

// cacheNode is one label the cache knows: a cached leaf (at > 0, its cell's
// index), a shape entry (at < 0, its cell's index negated), or a label with
// cached leaves or shape entries below it, hence internal when they were read
// (at == 0).
type cacheNode struct {
	at     int32
	leaves int32 // cached leaves and shape entries the label is a proper prefix of
	depth  int32 // the sum of their lengths
}

// view is what the cache knows about one path label: the cached leaf
// covering it (hit), or else the length of the deepest path prefix known
// internal (bound, 0 for none) and the mean length of the cached leaves and
// shape entries under that prefix (guess).
type view struct {
	leaf  bitlabel.Label
	hit   bool
	bound int
	guess int
}

func newLeafCache(capacity, dims int) *leafCache {
	return &leafCache{
		cap:   capacity,
		root:  dims + 1,
		cells: []cell{leafList: {prev: leafList, next: leafList}, shapeList: {prev: shapeList, next: shapeList}},
		nodes: make(map[uint64]cacheNode),
	}
}

// add records leaf as just read from the DHT, evicting the least recently
// used leaf into the shape entries when the cache is full. A leaf's proper
// prefixes are internal and nothing lies below it, so cached leaves and shape
// entries on either side of it are older news and are dropped.
func (c *leafCache) add(leaf bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[leaf.Bits()]; ok {
		switch {
		case n.at > 0:
			c.move(n.at, leafList)
			return
		case n.at < 0:
			// Read again: its prefixes' tallies count it already.
			c.move(-n.at, leafList)
			c.shapes--
			c.leaves++
			c.nodes[leaf.Bits()] = cacheNode{at: -n.at}
			c.evict()
			return
		}
		// Held internal: the leaf is a merge of what the cache holds below.
		c.removeBelow(leaf)
	}
	for l := c.root; l < leaf.Len(); l++ {
		k := leaf.Prefix(l).Bits()
		n := c.nodes[k]
		if n.at != 0 {
			c.remove(n.at)
			n = cacheNode{}
		}
		n.leaves++
		n.depth += int32(leaf.Len())
		c.nodes[k] = n
	}
	i := c.newCell(leaf)
	c.link(i, leafList)
	c.leaves++
	c.nodes[leaf.Bits()] = cacheNode{at: i}
	c.evict()
}

// evict turns the least recently used leaves beyond cap into shape entries,
// and drops the oldest shape entries beyond shapeFactor·cap. c.mu must be
// held.
func (c *leafCache) evict() {
	for c.leaves > c.cap {
		i := c.cells[leafList].prev
		c.move(i, c.cells[shapeList].prev)
		c.leaves--
		c.shapes++
		c.nodes[c.cells[i].label.Bits()] = cacheNode{at: -i}
	}
	for c.shapes > shapeFactor*c.cap {
		c.remove(-c.cells[shapeList].next)
	}
}

// removeBelow drops every cached leaf and shape entry that label is a prefix
// of. c.mu must be held.
func (c *leafCache) removeBelow(label bitlabel.Label) {
	for _, head := range []int32{leafList, shapeList} {
		for i := c.cells[head].next; i != head; {
			next := c.cells[i].next
			if label.IsPrefixOf(c.cells[i].label) {
				c.remove(c.nodes[c.cells[i].label.Bits()].at)
			}
			i = next
		}
	}
}

// view scans path's prefixes once, from the root down, under one lock. The
// cached leaf met on the way is the hit (marked recently used); otherwise the
// last prefix met with cached leaves or shape entries below it is the bound.
func (c *leafCache) view(path bitlabel.Label) view {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v view
	for l := c.root; l <= path.Len(); l++ {
		n, ok := c.nodes[path.Prefix(l).Bits()]
		if !ok || n.at < 0 {
			break
		}
		if n.at > 0 {
			c.move(n.at, leafList)
			return view{leaf: path.Prefix(l), hit: true}
		}
		v.bound, v.guess = l, int((n.depth+n.leaves/2)/n.leaves)
	}
	return v
}

// tile plans the first round of a range with LCA lca from the cached tree,
// under one lock: a cached leaf or shape entry on lca's path covers the whole
// range as last read and is the one piece; otherwise, when lca is held as
// internal, tile descends from it through the labels held as internal, and
// the pieces are the first labels below them, cached leaves and shape entries
// among them. ok is false when the cache knows nothing about lca.
func (c *leafCache) tile(lca bitlabel.Label, q spatial.Rect, shape spatial.Shape) (pieces []piece, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := c.root; l <= lca.Len(); l++ {
		prefix := lca.Prefix(l)
		n, held := c.nodes[prefix.Bits()]
		if !held {
			return nil, false
		}
		if n.at != 0 {
			return []piece{{Node: prefix, Base: prefix, Q: q}}, true
		}
	}
	dims := c.root - 1
	return tile(lca, q, dims, shape, func(l bitlabel.Label) bool {
		n, held := c.nodes[l.Bits()]
		return held && n.at == 0
	}), true
}

// invalidate drops a cached leaf or shape entry observed split, merged, or
// otherwise gone.
func (c *leafCache) invalidate(leaf bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[leaf.Bits()]; n.at != 0 {
		c.remove(n.at)
	}
}

// remove drops the cached leaf or shape entry whose node's at is given, and
// withdraws it from the tally of each of its proper prefixes. c.mu must be
// held.
func (c *leafCache) remove(at int32) {
	i := at
	if at < 0 {
		i = -at
		c.shapes--
	} else {
		c.leaves--
	}
	c.unlink(i)
	c.free = append(c.free, i)
	leaf := c.cells[i].label
	delete(c.nodes, leaf.Bits())
	for l := c.root; l < leaf.Len(); l++ {
		k := leaf.Prefix(l).Bits()
		n := c.nodes[k]
		if n.leaves--; n.leaves == 0 {
			delete(c.nodes, k)
			continue
		}
		n.depth -= int32(leaf.Len())
		c.nodes[k] = n
	}
}

// newCell returns an unlinked cell holding label, a freed one if there is
// one. c.mu must be held.
func (c *leafCache) newCell(label bitlabel.Label) int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.cells[i].label = label
		return i
	}
	c.cells = append(c.cells, cell{label: label})
	return int32(len(c.cells) - 1)
}

// link puts cell i, unlinked, right after cell at. c.mu must be held.
func (c *leafCache) link(i, at int32) {
	next := c.cells[at].next
	c.cells[i].prev, c.cells[i].next = at, next
	c.cells[at].next, c.cells[next].prev = i, i
}

// move takes cell i out of its list and puts it right after cell at. c.mu
// must be held.
func (c *leafCache) move(i, at int32) {
	c.unlink(i)
	c.link(i, at)
}

// unlink takes cell i out of its list. c.mu must be held.
func (c *leafCache) unlink(i int32) {
	prev, next := c.cells[i].prev, c.cells[i].next
	c.cells[prev].next, c.cells[next].prev = next, prev
}

// len returns the number of cached leaves.
func (c *leafCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaves
}

// cacheLeaf records a leaf observed current (just read from, or written to,
// the DHT). No-op when the cache is disabled, or for the empty label of a
// write that landed without saying where.
func (ix *Index) cacheLeaf(leaf bitlabel.Label) {
	if ix.cache != nil && !leaf.IsEmpty() {
		ix.cache.add(leaf)
	}
}

// invalidateLeaf drops a leaf the client observed restructured or missing.
// No-op when the cache is disabled.
func (ix *Index) invalidateLeaf(label bitlabel.Label) {
	if ix.cache != nil {
		ix.cache.invalidate(label)
	}
}

// cacheView returns what the cache knows about δ's path label; a disabled
// cache knows nothing (the zero view: no hit, no bound). A hit may have
// split or merged since it was cached: the search's first probe checks it.
func (ix *Index) cacheView(path bitlabel.Label) view {
	if ix.cache == nil {
		return view{}
	}
	return ix.cache.view(path)
}

// CacheLen returns the number of leaves in the lookup cache (0 when the
// cache is disabled; shape entries are not counted), for tests and
// monitoring.
func (ix *Index) CacheLen() int {
	if ix.cache == nil {
		return 0
	}
	return ix.cache.len()
}

package core

import (
	"container/list"
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
// The cached leaves form an antichain: adding a leaf drops the cached labels
// above and below it, which its being a leaf contradicts. nodes holds every
// cached leaf and every proper prefix of one (down to the root), each prefix
// with a tally of the cached leaves below it; add, invalidate and eviction
// keep the tally exact. The set is prefix-closed, so a scan up δ's path
// stops at the first label it does not hold.
//
// All methods are safe for concurrent use.
type leafCache struct {
	mu   sync.Mutex
	cap  int
	root int        // length of the ordinary root label, m+1: the shortest leaf
	lru  *list.List // cached leaves, front = most recent; values are bitlabel.Label
	// nodes is keyed by a label's bits alone: every kd-tree label starts
	// with 0^m 1, so its leading one fixes its length.
	nodes map[uint64]cacheNode
}

// cacheNode is one label the cache knows: a cached leaf (el set) or a label
// with cached leaves below it, hence internal when they were read.
type cacheNode struct {
	el     *list.Element
	leaves int32 // cached leaves the label is a proper prefix of
	depth  int32 // the sum of their lengths
}

// view is what the cache knows about one path label: the cached leaf
// covering it (hit), or else the length of the deepest path prefix known
// internal (bound, 0 for none) and the mean length of the cached leaves under
// that prefix (guess).
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
		nodes: make(map[uint64]cacheNode),
		lru:   list.New(),
	}
}

// add records leaf as just read from the DHT, evicting the least recently
// used entry when the cache is full. A leaf's proper prefixes are internal
// and nothing lies below it, so cached leaves on either side of it are older
// news and are dropped.
func (c *leafCache) add(leaf bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[leaf.Bits()]; ok {
		if n.el != nil {
			c.lru.MoveToFront(n.el)
			return
		}
		for el := c.lru.Front(); el != nil; {
			next := el.Next()
			if leaf.IsPrefixOf(el.Value.(bitlabel.Label)) {
				c.remove(el)
			}
			el = next
		}
	}
	for l := c.root; l < leaf.Len(); l++ {
		k := leaf.Prefix(l).Bits()
		n := c.nodes[k]
		if n.el != nil {
			c.remove(n.el)
			n = cacheNode{}
		}
		n.leaves++
		n.depth += int32(leaf.Len())
		c.nodes[k] = n
	}
	c.nodes[leaf.Bits()] = cacheNode{el: c.lru.PushFront(leaf)}
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back())
	}
}

// view scans path's prefixes once, from the root down, under one lock. The
// cached leaf met on the way is the hit (marked recently used); otherwise the
// last prefix met with cached leaves below it is the bound.
func (c *leafCache) view(path bitlabel.Label) view {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v view
	for l := c.root; l <= path.Len(); l++ {
		n, ok := c.nodes[path.Prefix(l).Bits()]
		if !ok {
			break
		}
		if n.el != nil {
			c.lru.MoveToFront(n.el)
			return view{leaf: path.Prefix(l), hit: true}
		}
		v.bound, v.guess = l, int((n.depth+n.leaves/2)/n.leaves)
	}
	return v
}

// tile plans the first round of a range with LCA lca from the cached tree,
// under one lock: a cached leaf on lca's path covers the whole range and is
// the one piece; otherwise, when lca is held as internal, tile descends from
// it through the labels held as internal. ok is false when the cache knows
// nothing about lca.
func (c *leafCache) tile(lca bitlabel.Label, q spatial.Rect, shape spatial.Shape) (pieces []piece, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := c.root; l <= lca.Len(); l++ {
		prefix := lca.Prefix(l)
		n, held := c.nodes[prefix.Bits()]
		if !held {
			return nil, false
		}
		if n.el != nil {
			return []piece{{Node: prefix, Base: prefix, Q: q}}, true
		}
	}
	dims := c.root - 1
	return tile(lca, q, dims, shape, func(l bitlabel.Label) bool {
		n, held := c.nodes[l.Bits()]
		return held && n.el == nil
	}), true
}

// invalidate drops a leaf observed split, merged, or otherwise gone.
func (c *leafCache) invalidate(leaf bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[leaf.Bits()]; n.el != nil {
		c.remove(n.el)
	}
}

// remove drops one cached leaf and withdraws it from the tally of each of
// its proper prefixes. c.mu must be held.
func (c *leafCache) remove(el *list.Element) {
	leaf := c.lru.Remove(el).(bitlabel.Label)
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

// len returns the number of cached leaves.
func (c *leafCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
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

// CacheLen returns the number of entries in the lookup cache (0 when the
// cache is disabled), for tests and monitoring.
func (ix *Index) CacheLen() int {
	if ix.cache == nil {
		return 0
	}
	return ix.cache.len()
}

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
// its prefix cache. A cached leaf λ seeds the §5 binary search: the first
// probe targets fmd(λ) directly, so a repeat lookup on an unchanged index
// costs a single verification probe instead of O(log D).
//
// The cache stores only labels, never bucket contents, so it can suggest a
// wrong starting point after a split or merge but can never serve stale
// records: the verification probe re-reads the bucket, and a mismatch
// (missing bucket, or a different label at the key) evicts the entry and
// falls back to the standard binary search bounds. Structural operations
// the client itself performs (splits in Insert, merges in Delete)
// invalidate eagerly; restructuring by other clients is caught lazily by
// the verification probe.
//
// All methods are safe for concurrent use.
type leafCache struct {
	mu      sync.Mutex
	cap     int
	entries map[bitlabel.Label]*list.Element // leaf label → LRU element
	lru     *list.List                       // front = most recent; values are bitlabel.Label
}

func newLeafCache(capacity int) *leafCache {
	return &leafCache{
		cap:     capacity,
		entries: make(map[bitlabel.Label]*list.Element, capacity),
		lru:     list.New(),
	}
}

// add records leaf as recently resolved, evicting the least recently used
// entry when the cache is full.
func (c *leafCache) add(leaf bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[leaf]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[leaf] = c.lru.PushFront(leaf)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(bitlabel.Label))
	}
}

// find returns the deepest cached leaf whose label is a prefix of path —
// the cell that covered the point last time — marking it recently used.
// Leaf labels are prefixes of the path labels of the points they cover, so
// candidates are exactly the prefixes of path present in the cache.
func (c *leafCache) find(path bitlabel.Label, minLen int) (bitlabel.Label, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := path.Len(); l >= minLen; l-- {
		if el, ok := c.entries[path.Prefix(l)]; ok {
			c.lru.MoveToFront(el)
			return el.Value.(bitlabel.Label), true
		}
	}
	return bitlabel.Label{}, false
}

// invalidate drops a leaf observed split, merged, or otherwise gone.
func (c *leafCache) invalidate(leaf bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[leaf]; ok {
		c.lru.Remove(el)
		delete(c.entries, leaf)
	}
}

// len returns the number of cached leaves.
func (c *leafCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cacheLeaf records a leaf bucket observed current (just read from the
// DHT). No-op when the cache is disabled.
func (ix *Index) cacheLeaf(b Bucket) {
	if ix.cache != nil {
		ix.cache.add(b.Label)
	}
}

// invalidateLeaf drops a leaf the client observed restructured or missing.
// No-op when the cache is disabled.
func (ix *Index) invalidateLeaf(label bitlabel.Label) {
	if ix.cache != nil {
		ix.cache.invalidate(label)
	}
}

// cachedLeaf returns the cached leaf whose cell covers key, if there is one:
// the label the §5 search would probe first. It may have split or merged
// since it was cached; whoever uses it must check the stored label.
func (ix *Index) cachedLeaf(key spatial.Point) (bitlabel.Label, bool) {
	if ix.cache == nil {
		return bitlabel.Label{}, false
	}
	path, err := bitlabel.PathLabel(key, ix.opts.MaxDepth)
	if err != nil {
		return bitlabel.Label{}, false
	}
	return ix.cache.find(path, ix.opts.Dims+1)
}

// CacheLen returns the number of entries in the lookup cache (0 when the
// cache is disabled), for tests and monitoring.
func (ix *Index) CacheLen() int {
	if ix.cache == nil {
		return 0
	}
	return ix.cache.len()
}

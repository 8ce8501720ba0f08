package dht

import (
	"fmt"
	"sort"
	"sync"

	"mlight/internal/hashseed"
)

// memShards is the number of key-space partitions of an in-memory store.
// Power of two so shard selection is a mask; 256 keeps per-shard footprint
// small while making cross-shard collisions rare even at high concurrency.
const memShards = 256

// storeShard is one partition of the store, padded out to its own cache
// lines so neighbouring shards' locks do not false-share.
type storeShard struct {
	mu    sync.RWMutex
	store map[Key]any
	_     [104]byte
}

// Local is a single-process DHT: a concurrency-safe key-value store that
// assigns ownership over a configurable set of virtual peers by consistent
// hashing, exactly as a ring DHT would. It is the fast substrate for unit
// tests and the default for the paper's experiments, where the metrics of
// interest (logical DHT operations, records moved, rounds) are independent
// of overlay routing.
//
// A batch is atomic per shard, not across the store: two keys in different
// shards may be observed mid-batch by a concurrent reader. The index's
// group-commit writer tolerates this (its correctness argument is per-key
// copy-on-write, never cross-key atomicity).
type Local struct {
	// shards partitions the store over independently locked maps: memShards
	// of them in memory, so one lock's contention domain is 1/256 of the key
	// space, and one under a WAL — the journal serialises appends anyway and
	// compaction needs one consistent cut of the whole store. The count
	// follows from the journal's presence; nothing sets it.
	shards []storeShard
	// ring holds the virtual peers' positions, sorted; peers[i] names the
	// peer at ring[i]. Both are fixed at construction.
	ring  []ID
	peers []string
	// wal, when non-nil, journals every mutation before it lands in the
	// store (write-ahead discipline) so CrashVolatile + Recover round-trips
	// the state. A batch journals with a single group-commit Append.
	wal *WAL
}

var (
	_ DHT         = (*Local)(nil)
	_ Enumerator  = (*Local)(nil)
	_ Batcher     = (*Local)(nil)
	_ BatchWriter = (*Local)(nil)
	_ Doer        = (*Local)(nil)
)

func newLocal(numPeers, shards int) (*Local, error) {
	ring, peers, err := buildVirtualRing(numPeers)
	if err != nil {
		return nil, err
	}
	l := &Local{shards: make([]storeShard, shards), ring: ring, peers: peers}
	for i := range l.shards {
		l.shards[i].store = make(map[Key]any)
	}
	return l, nil
}

// NewLocal creates a local DHT with numPeers virtual peers named
// "peer-0" … "peer-N-1", placed on the identifier ring by hashing their
// names. numPeers must be at least 1.
func NewLocal(numPeers int) (*Local, error) { return newLocal(numPeers, memShards) }

// MustNewLocal is NewLocal for trusted constants; it panics on error.
func MustNewLocal(numPeers int) *Local {
	l, err := NewLocal(numPeers)
	if err != nil {
		panic(err)
	}
	return l
}

// NewSharded and MustNewSharded are NewLocal and MustNewLocal under the names
// cmd/mlight-perf calls them by.
func NewSharded(numPeers int) (*Local, error) { return NewLocal(numPeers) }

// MustNewSharded is MustNewLocal; see NewSharded.
func MustNewSharded(numPeers int) *Local { return MustNewLocal(numPeers) }

// NewDurableLocal creates a local DHT whose buckets persist in w: journaled
// state is replayed into the store on open (so a restart resumes where the
// last crash left off), and every subsequent mutation is journaled before
// it is applied. The caller retains ownership of w and must Close it after
// the Local is discarded; w.LastReplay reports what this open recovered.
func NewDurableLocal(numPeers int, w *WAL) (*Local, error) {
	l, err := newLocal(numPeers, 1)
	if err != nil {
		return nil, err
	}
	l.wal = w
	if err := l.Recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// buildVirtualRing places numPeers virtual peers named "peer-0" …
// "peer-N-1" on the identifier ring by hashing their names, returning the
// sorted positions and the matching peer names.
func buildVirtualRing(numPeers int) (ring []ID, peers []string, err error) {
	if numPeers < 1 {
		return nil, nil, fmt.Errorf("dht: need at least one virtual peer, got %d", numPeers)
	}
	type entry struct {
		id   ID
		name string
	}
	entries := make([]entry, numPeers)
	for i := range entries {
		name := fmt.Sprintf("peer-%d", i)
		entries[i] = entry{id: HashString(name), name: name}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id.Cmp(entries[j].id) < 0 })
	ring = make([]ID, numPeers)
	peers = make([]string, numPeers)
	for i, e := range entries {
		ring[i] = e.id
		peers[i] = e.name
	}
	return ring, peers, nil
}

// CrashVolatile destroys the in-memory store, exactly as a process crash
// would: everything not journaled is gone. The ring layout (configuration,
// not data) survives. Pair with Recover to model a crash/restart cycle on
// the local substrate.
func (l *Local) CrashVolatile() {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.store = make(map[Key]any)
		sh.mu.Unlock()
	}
}

// Recover rebuilds the store from the journal, replacing whatever is in
// memory. On a Local without a WAL it is a no-op: there is nothing to
// recover from, which is precisely the gap the durable store closes.
func (l *Local) Recover() error {
	if l.wal == nil {
		return nil
	}
	sh := &l.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	state, err := l.wal.Restore()
	if err != nil {
		return err
	}
	sh.store = state
	return nil
}

// Durable reports whether mutations are journaled.
func (l *Local) Durable() bool { return l.wal != nil }

// shardIndex picks the partition for a key: seedless FNV over the key bytes,
// finalised so consecutive keys spread over all shards.
func (l *Local) shardIndex(key Key) int {
	if len(l.shards) == 1 {
		return 0
	}
	return int(hashseed.Fmix64(hashseed.String(hashseed.FNVOffset64, string(key))) & (memShards - 1))
}

// smallBatch is the batch size up to which byShard's caller orders positions
// in stack arrays.
const smallBatch = 16

// batchOrder returns position and shard scratch of length n for byShard: the
// caller's stack arrays when they are long enough, fresh slices otherwise.
func batchOrder(n int, pos, shard []int) ([]int, []int) {
	if n > len(pos) {
		return make([]int, n), make([]int, n)
	}
	return pos[:n], shard[:n]
}

// byShard orders the positions 0…n-1 of a batch (n = len(pos)) in pos by the
// shard their key lives in, positions ascending within a shard, and notes
// position i's shard in shard[i] — so a batch takes each shard lock once, and
// same-key operations keep their order. Callers walk the runs with shardRun.
// A round's few keys are insertion-sorted in place; a batch past smallBatch
// is counting-sorted over a table of every shard.
func (l *Local) byShard(key func(i int) Key, pos, shard []int) {
	for i := range pos {
		shard[i] = l.shardIndex(key(i))
	}
	if len(pos) <= smallBatch {
		for i := range pos {
			j := i
			for ; j > 0 && shard[pos[j-1]] > shard[i]; j-- {
				pos[j] = pos[j-1]
			}
			pos[j] = i
		}
		return
	}
	next := make([]int, len(l.shards)+1)
	for _, s := range shard {
		next[s+1]++
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	for i, s := range shard {
		pos[next[s]] = i
		next[s]++
	}
}

// shardRun returns the shard of the run of byShard's order that starts at
// pos[start], and where the run ends.
func (l *Local) shardRun(pos, shard []int, start int) (*storeShard, int) {
	s, end := shard[pos[start]], start+1
	for end < len(pos) && shard[pos[end]] == s {
		end++
	}
	return &l.shards[s], end
}

// mutation is the journal's record of a transform's outcome at key: next
// stored in place of cur, or key deleted when keep is false. cur is nil when
// the key held nothing.
func mutation(key Key, cur, next any, keep bool) WALRecord {
	if !keep {
		return WALRecord{Op: WALRemove, Key: key}
	}
	return WALRecord{Op: WALPut, Key: key, Value: next, Prev: cur}
}

// commitLocked journals muts as one group-commit Append (when durable) and
// only then lands them in sh.store: either every mutation is recoverable or,
// if the journal write fails, none of them touched the store. Past the log's
// compaction threshold it snapshots the store — under a WAL sh is the only
// shard, so with sh.mu held that is a consistent cut including muts. Called
// with sh.mu held.
func (l *Local) commitLocked(sh *storeShard, muts []WALRecord) error {
	if l.wal != nil {
		if err := l.wal.Append(muts); err != nil {
			return err
		}
	}
	for i := range muts {
		m := &muts[i]
		switch {
		case m.unchanged: // the journal found Value equal to Prev
		case m.Op == WALPut:
			sh.store[m.Key] = m.Value
		default:
			delete(sh.store, m.Key)
		}
	}
	if l.wal != nil && l.wal.ShouldCompact() {
		return l.wal.Compact(sh.store)
	}
	return nil
}

// Put implements DHT.
func (l *Local) Put(key Key, value any) error {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return l.commitLocked(sh, []WALRecord{{Op: WALPut, Key: key, Value: value}})
}

// Get implements DHT.
func (l *Local) Get(key Key) (any, bool, error) {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.RLock()
	v, ok := sh.store[key]
	sh.mu.RUnlock()
	return v, ok, nil
}

// Remove implements DHT.
func (l *Local) Remove(key Key) error {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return l.commitLocked(sh, []WALRecord{{Op: WALRemove, Key: key}})
}

// Apply implements DHT: the transform runs under the key's shard lock, so it
// is atomic with respect to every other operation on that key. On a durable
// Local the transform's outcome is journaled (as the resulting put or delete
// — closures cannot replay — beside the value it replaces, so that the journal
// can keep only the difference) before the store changes. A transform that
// leaves an absent key absent has no outcome to journal.
func (l *Local) Apply(key Key, fn ApplyFunc) error {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.store[key]
	next, keep := fn(cur, ok)
	if !ok && !keep {
		return nil
	}
	return l.commitLocked(sh, []WALRecord{mutation(key, cur, next, keep)})
}

// Do implements Doer: Apply with the op's Run in the closure's place, and a
// run that writes nothing leaving the store and the journal alone.
func (l *Local) Do(key Key, op Op) (any, error) {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.store[key]
	next, write, result, err := op.Run(cur, ok)
	if err != nil {
		return nil, err
	}
	if write {
		if err := l.commitLocked(sh, []WALRecord{mutation(key, cur, next, true)}); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// GetBatch implements Batcher natively: each shard is read under one
// shared-lock acquisition. The maxInFlight cap is irrelevant here — nothing
// blocks.
func (l *Local) GetBatch(keys []Key, maxInFlight int) []BatchResult {
	results := make([]BatchResult, len(keys))
	var posBuf, shardBuf [smallBatch]int
	pos, shard := batchOrder(len(keys), posBuf[:], shardBuf[:])
	l.byShard(func(i int) Key { return keys[i] }, pos, shard)
	for start := 0; start < len(pos); {
		sh, end := l.shardRun(pos, shard, start)
		sh.mu.RLock()
		for _, i := range pos[start:end] {
			v, ok := sh.store[keys[i]]
			results[i] = BatchResult{Value: v, Found: ok}
		}
		sh.mu.RUnlock()
		start = end
	}
	return results
}

// PutBatch implements BatchWriter natively: each shard's group lands under
// one exclusive-lock acquisition and, on a durable Local, one journal write —
// hence one outcome for the group.
func (l *Local) PutBatch(ops []PutOp, maxInFlight int) []error {
	errs := make([]error, len(ops))
	var posBuf, shardBuf [smallBatch]int
	pos, shard := batchOrder(len(ops), posBuf[:], shardBuf[:])
	l.byShard(func(i int) Key { return ops[i].Key }, pos, shard)
	for start := 0; start < len(pos); {
		sh, end := l.shardRun(pos, shard, start)
		idxs := pos[start:end]
		muts := make([]WALRecord, len(idxs))
		for j, i := range idxs {
			muts[j] = WALRecord{Op: WALPut, Key: ops[i].Key, Value: ops[i].Value}
		}
		sh.mu.Lock()
		err := l.commitLocked(sh, muts)
		sh.mu.Unlock()
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
		}
		start = end
	}
	return errs
}

// Owner implements DHT: the peer owning a key is the first peer at or after
// hash(key) on the ring (the key's successor).
func (l *Local) Owner(key Key) (string, error) {
	id := HashKey(key)
	i := sort.Search(len(l.ring), func(i int) bool { return l.ring[i].Cmp(id) >= 0 })
	if i == len(l.ring) {
		i = 0
	}
	return l.peers[i], nil
}

// Peers returns the names of all virtual peers.
func (l *Local) Peers() []string {
	return append([]string(nil), l.peers...)
}

// Range implements Enumerator. The iteration works shard by shard from a
// point-in-time key snapshot and re-reads each value, so fn never runs under
// a shard lock.
func (l *Local) Range(fn func(key Key, value any) bool) error {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		keys := make([]Key, 0, len(sh.store))
		for k := range sh.store {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			sh.mu.RLock()
			v, ok := sh.store[k]
			sh.mu.RUnlock()
			if ok && !fn(k, v) {
				return nil
			}
		}
	}
	return nil
}

// Len returns the number of stored entries.
func (l *Local) Len() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		n += len(sh.store)
		sh.mu.RUnlock()
	}
	return n
}

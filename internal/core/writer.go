package core

import (
	"sort"
	"sync"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/spatial"
)

// This file is the group-commit insert engine. A sequential Insert pays a
// search, one append op at the leaf's owner, and one Put per relocated split
// piece — per record. InsertBatch amortises all three: a record whose leaf the
// cache holds joins that leaf's group with no read and the others are looked up
// side by side, every record bound for the same key rides one append op, and
// all relocated pieces of the whole batch ship in one PutBatch round. The
// Writer on top coalesces concurrent Insert callers into such batches without
// timers or background goroutines.
//
// Stats-equality discipline, the same one the range driver keeps for queries:
// batching changes execution, never the maintenance accounting. Both drivers
// send the same op (appendProbe), whose transform (SplitRule.Append, commit.go)
// replays its records one at a time and charges Splits and RecordsMoved at
// each intermediate split event exactly as a stream of single inserts would;
// only the final frontier pieces are placed: identical trees, identical
// Splits/RecordsMoved, fewer DHT round trips. DHTLookups intentionally
// differs — that reduction is the point.

// InsertBatch adds a batch of records in one group-committed pass and
// returns a positional error slice: errs[i] is record i's outcome, nil on
// success. A record's destination is the leaf the cache holds for it, with no
// read, and otherwise the leaf a lookup finds; records destined for the same
// key coalesce into a single append op at the owning peer, and keys are
// written concurrently up to Tuning.MaxInFlight. The owner appends the records
// its stored leaf covers, as it does for Insert: records it does not cover (a
// stale cache entry, a concurrent split or merge) fall back to the sequential
// Insert path, in stream order, so the batch as a whole has
// insert-per-record semantics.
func (ix *Index) InsertBatch(recs []spatial.Record) []error {
	errs := make([]error, len(recs))
	paths := make([]bitlabel.Label, len(recs))
	views := make([]view, len(recs))
	leaves := make([]bitlabel.Label, len(recs))
	var valid, misses []int
	for i, rec := range recs {
		if paths[i], errs[i] = ix.pathLabel(rec.Key); errs[i] != nil {
			continue
		}
		valid = append(valid, i)
		if views[i] = ix.cacheView(paths[i]); views[i].hit {
			leaves[i] = views[i].leaf
		} else {
			misses = append(misses, i)
		}
	}
	// Only misses are looked up, overlapped up to the in-flight cap. A lookup
	// reads through a concurrent split or merge (move.go), so one that fails
	// is the record's error.
	dht.Fan(len(misses), ix.opts.MaxInFlight, func(j int) {
		i := misses[j]
		b, err := ix.lookupPath(recs[i].Key, paths[i], views[i], &LookupTrace{}, 0)
		leaves[i], errs[i] = b.Label, err
	})

	var fallback []int
	groups := make(map[bitlabel.Label]*insertGroup)
	var order []*insertGroup
	for _, i := range valid {
		if errs[i] != nil {
			continue
		}
		key := bitlabel.Name(leaves[i], ix.opts.Dims)
		g := groups[key]
		if g == nil {
			g = &insertGroup{key: key}
			groups[key] = g
			order = append(order, g)
		}
		// Stream order is preserved within a group: valid is ascending.
		g.recIdx = append(g.recIdx, i)
		g.recs = append(g.recs, recs[i])
	}

	// One append op per destination key, all keys in flight at once.
	dht.Fan(len(order), ix.opts.MaxInFlight, func(j int) {
		g := order[j]
		g.leaf, g.landed, g.err = ix.appendProbe(g.recs, &g.wrote)(g.key, 0)
	})

	var moved []Bucket
	var movedGroups []*insertGroup
	for _, g := range order {
		if g.err != nil {
			for _, i := range g.recIdx {
				errs[i] = g.err
			}
			continue
		}
		// A record lands unless its group came back Gone or the commit lists
		// it Stale. One that did not land re-enters through the sequential
		// path and the leaf it was sent for is evicted; a cache hit is booked
		// as Insert's first probe books it.
		landed := make([]bool, len(g.recIdx))
		if g.landed {
			for k := range landed {
				landed[k] = true
			}
			for _, k := range g.wrote.commit.Stale {
				landed[k] = false
			}
		}
		for k, i := range g.recIdx {
			switch {
			case landed[k] && views[i].hit:
				ix.stats.CacheHits.Inc()
			case !landed[k]:
				if views[i].hit {
					ix.stats.CacheStale.Inc()
				}
				ix.invalidateLeaf(leaves[i])
				fallback = append(fallback, i)
			}
		}
		if !g.landed {
			continue
		}
		ix.cacheLeaf(g.leaf)
		ix.settle(&g.wrote.commit)
		moved = append(moved, pieces(g.wrote.commit.Moved, g.wrote.commit.Gen)...)
		for range g.wrote.commit.Moved {
			movedGroups = append(movedGroups, g)
		}
	}

	// Install every relocated piece of the whole batch in one round, then
	// clear each split's mark.
	for k, err := range ix.installPieces(moved) {
		// A stale record's slot is overwritten by its fallback insert below.
		if g := movedGroups[k]; err != nil && g.err == nil {
			g.err = err
			for _, i := range g.recIdx {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		}
	}
	for k, g := range movedGroups {
		if (k > 0 && movedGroups[k-1] == g) || g.err != nil {
			continue
		}
		if err := ix.clearMove(g.wrote.key, g.wrote.commit.Moved); err != nil {
			for _, i := range g.recIdx {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		}
	}

	// Sequential fallback, in stream order.
	sort.Ints(fallback)
	for _, i := range fallback {
		errs[i] = ix.Insert(recs[i])
	}
	return errs
}

// insertGroup is the per-key unit of a group commit: the records resolved to
// one destination key, and what the owning peer decided for them.
type insertGroup struct {
	key    bitlabel.Label   // fmd of the leaf the records were resolved to
	recIdx []int            // positions in the batch, ascending (stream order)
	recs   []spatial.Record // the records at those positions
	wrote  wrote
	// leaf is the stored leaf the append landed in or, when it did not land,
	// the label the owner reported; err is a failure of the op itself.
	leaf   bitlabel.Label
	landed bool
	err    error
}

// Writer is the group-commit front end for concurrent inserters: callers
// block in Insert while their records coalesce with everyone else's into
// InsertBatch commits. Leadership rotates through a baton channel — whichever
// waiter holds the baton drains the queue (up to writerBatch records)
// and commits it for the group — so there are no timers and no background
// goroutines: a lone inserter commits immediately, and batches form exactly
// when callers actually overlap.
type Writer struct {
	ix *Index

	mu    sync.Mutex
	queue []*pendingInsert
	// baton holds the single leadership token; taking it makes the caller
	// the committer for the current queue.
	baton chan struct{}
}

// pendingInsert is one queued record and the channel its error comes back on.
type pendingInsert struct {
	rec  spatial.Record
	done chan error
}

// Writer returns the index's group-commit insert engine, created on first
// use. The writer is shared: every goroutine calling Writer().Insert
// participates in the same commit group. The sequential Insert method
// remains available alongside it.
func (ix *Index) Writer() *Writer {
	ix.writerOnce.Do(func() {
		ix.writer = &Writer{ix: ix, baton: make(chan struct{}, 1)}
		ix.writer.baton <- struct{}{}
	})
	return ix.writer
}

// Insert adds one record through the group-commit engine, blocking until its
// commit completes. Semantics match Index.Insert: the same errors, the same
// split behaviour, the same maintenance accounting — only the round trips
// are shared with concurrently inserting goroutines.
func (w *Writer) Insert(rec spatial.Record) error {
	p := &pendingInsert{rec: rec, done: make(chan error, 1)}
	w.mu.Lock()
	w.queue = append(w.queue, p)
	w.mu.Unlock()
	for {
		select {
		case err := <-p.done:
			return err
		case <-w.baton:
			w.commit()
			w.baton <- struct{}{}
		}
	}
}

// writerBatch bounds how many queued inserts one group commit drains.
const writerBatch = 256

// commit drains up to writerBatch queued inserts and runs them as one
// InsertBatch, delivering each waiter its positional error. Called only by
// the baton holder.
func (w *Writer) commit() {
	w.mu.Lock()
	n := len(w.queue)
	if n > writerBatch {
		n = writerBatch
	}
	batch := w.queue[:n:n]
	w.queue = append([]*pendingInsert(nil), w.queue[n:]...)
	w.mu.Unlock()
	if n == 0 {
		return
	}
	recs := make([]spatial.Record, n)
	for i, p := range batch {
		recs[i] = p.rec
	}
	errs := w.ix.InsertBatch(recs)
	for i, p := range batch {
		p.done <- errs[i]
	}
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/spatial"
)

// This file is the group-commit insert engine. A sequential Insert pays a
// lookup, one Apply round trip, and one Put per relocated split piece — per
// record. InsertBatch amortises all three: destination leaves are resolved
// with overlapped lookups, every record bound for the same leaf rides one
// Apply, and all relocated pieces of the whole batch ship in one PutBatch
// round. The Writer on top coalesces concurrent Insert callers into such
// batches without timers or background goroutines.
//
// Stats-equality discipline, the same one the range driver keeps for queries:
// batching changes execution, never the maintenance accounting. Both drivers
// send the same transform (SplitRule.Append, commit.go), which replays its
// records one at a time and charges Splits and RecordsMoved at each
// intermediate split event exactly as a stream of single inserts would; only
// the final frontier pieces are placed: identical trees, identical
// Splits/RecordsMoved, fewer DHT round trips. DHTLookups intentionally
// differs — that reduction is the point.

// InsertBatch adds a batch of records in one group-committed pass and
// returns a positional error slice: errs[i] is record i's outcome, nil on
// success. Records destined for the same leaf coalesce into a single Apply
// at the owning peer; leaves are processed concurrently up to
// Tuning.MaxInFlight. Records whose destination moved mid-flight (a
// concurrent split or merge) fall back to the sequential Insert path, in
// stream order, so the batch as a whole has insert-per-record semantics.
func (ix *Index) InsertBatch(recs []spatial.Record) []error {
	errs := make([]error, len(recs))
	if len(recs) == 0 {
		return errs
	}
	m := ix.opts.Dims
	valid := make([]int, 0, len(recs))
	for i, rec := range recs {
		if rec.Key.Dim() != m {
			errs[i] = fmt.Errorf("%w: record has %d dims, index has %d", ErrDimension, rec.Key.Dim(), m)
			continue
		}
		if !rec.Key.Valid() {
			errs[i] = fmt.Errorf("core: record key %v outside the unit cube", rec.Key)
			continue
		}
		valid = append(valid, i)
	}

	// Resolve every record's destination leaf, overlapping the lookups up
	// to the in-flight cap. A lookup that cannot locate a covering bucket
	// (a concurrent split mid-flight) routes the record to the sequential
	// fallback, which retries with backoff.
	labels := make([]bitlabel.Label, len(recs))
	resolveErrs := make([]error, len(recs))
	sem := make(chan struct{}, ix.opts.MaxInFlight)
	var wg sync.WaitGroup
	for _, i := range valid {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			b, err := ix.Lookup(recs[i].Key)
			if err != nil {
				resolveErrs[i] = err
				return
			}
			labels[i] = b.Label
		}(i)
	}
	wg.Wait()

	var fallback []int
	groups := make(map[bitlabel.Label]*insertGroup)
	var order []*insertGroup
	for _, i := range valid {
		if err := resolveErrs[i]; err != nil {
			if errors.Is(err, ErrNotFound) {
				fallback = append(fallback, i)
			} else {
				errs[i] = err
			}
			continue
		}
		g := groups[labels[i]]
		if g == nil {
			g = &insertGroup{label: labels[i]}
			groups[labels[i]] = g
			order = append(order, g)
		}
		// Stream order is preserved within a group: valid is ascending.
		g.recIdx = append(g.recIdx, i)
		g.recs = append(g.recs, recs[i])
	}

	// One Apply per destination leaf, all leaves in flight at once.
	ops := make([]dht.ApplyOp, len(order))
	for j, g := range order {
		ops[j] = dht.ApplyOp{Key: labelKey(bitlabel.Name(g.label, m)), Fn: dht.AsApply(ix.appendOp(g.label, g.recs), &g.res, &g.opErr)}
	}
	applyErrs := dht.ApplyBatch(ix.d, ops, ix.opts.MaxInFlight)

	var placeOps []dht.PutOp
	var placeGroups []*insertGroup
	for j, g := range order {
		err := applyErrs[j]
		if err == nil {
			err = g.opErr
		}
		out, _ := g.res.(Commit)
		if err != nil {
			err = fmt.Errorf("core: insert apply at %v: %w", g.label, err)
		} else if out.Err != nil {
			err = fmt.Errorf("core: insert split at %v: %w", g.label, out.Err)
		}
		if err != nil {
			for _, i := range g.recIdx {
				errs[i] = err
			}
			continue
		}
		if out.Gone {
			// The whole bucket moved between lookup and apply.
			ix.invalidateLeaf(g.label)
			fallback = append(fallback, g.recIdx...)
			continue
		}
		// Only the records the leaf no longer covers re-enter through the
		// sequential path.
		for _, k := range out.Stale {
			fallback = append(fallback, g.recIdx[k])
		}
		ix.settle(&out)
		placeOps = ix.placeOps(placeOps, out.Moved)
		for range out.Moved {
			placeGroups = append(placeGroups, g)
		}
	}

	// Ship every relocated piece of the whole batch in one PutBatch round.
	if len(placeOps) > 0 {
		for k, err := range dht.PutBatch(ix.d, placeOps, ix.opts.MaxInFlight) {
			if err == nil {
				continue
			}
			// A stale record's slot is overwritten by its fallback insert below.
			for _, i := range placeGroups[k].recIdx {
				if errs[i] == nil {
					errs[i] = fmt.Errorf("core: place bucket: %w", err)
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

// insertGroup is the per-leaf unit of a group commit: the records bound for
// one destination leaf, and what the owning peer's last run of the transform
// decided for them.
type insertGroup struct {
	label  bitlabel.Label
	recIdx []int            // positions in the batch, ascending (stream order)
	recs   []spatial.Record // the records at those positions
	res    any              // the last run's result, a Commit
	opErr  error            // and its error
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

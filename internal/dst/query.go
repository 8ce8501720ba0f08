package dst

import (
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

// QueryResult carries the answer and the cost of one range query, in the
// same units as the other indexes: DHT-lookups (bandwidth) and rounds of
// DHT-lookups on the critical path (latency). It is an alias of the shared
// index.Result, so results from the three schemes compare directly.
type QueryResult = index.Result

// RangeQuery answers a range query with the segment-tree algorithm: the
// range is decomposed locally into canonical cells — maximal z-prefix
// cells fully inside the range, plus depth-D boundary cells that straddle
// it — and every cell is resolved with one DHT-lookup, all in parallel.
// An unsaturated node answers its cell alone (O(1) rounds); a saturated
// node forces a descent to its children, adding a round per level.
//
// Because the decomposition is computed against the fixed height D rather
// than the (unknown) real data depth, large ranges shatter into very many
// boundary cells — the bandwidth penalty §7.4 observes.
func (ix *Index) RangeQuery(q spatial.Rect) (res *QueryResult, err error) {
	if tc := ix.opts.Trace; tc != nil {
		span := tc.Begin(0, trace.KindQuery, "dst-range")
		defer func() {
			if err != nil {
				tc.End(span, trace.Str("error", err.Error()))
				return
			}
			tc.End(span,
				trace.Int("lookups", int64(res.Lookups)),
				trace.Int("rounds", int64(res.Rounds)),
				trace.Int("records", int64(len(res.Records))))
		}()
	}
	return ix.rangeQuery(q)
}

func (ix *Index) rangeQuery(q spatial.Rect) (*QueryResult, error) {
	m := ix.opts.Dims
	if q.Dim() != m {
		return nil, fmt.Errorf("dst: query has %d dims, index has %d", q.Dim(), m)
	}
	if _, err := spatial.NewRect(q.Lo, q.Hi); err != nil {
		return nil, fmt.Errorf("dst: invalid query rectangle: %w", err)
	}
	var canonical []bitlabel.Label
	ix.decompose(bitlabel.Empty, spatial.UnitCube(m), q, &canonical)
	res := &QueryResult{}
	for _, cell := range canonical {
		recs, rounds, lookups, err := ix.resolveCell(cell, q)
		if err != nil {
			return nil, err
		}
		res.Records = append(res.Records, recs...)
		res.Lookups += lookups
		if rounds > res.Rounds {
			res.Rounds = rounds // canonical cells are probed in parallel
		}
	}
	if res.Rounds == 0 {
		res.Rounds = 1
	}
	return res, nil
}

// decompose recursively splits the unit cube into canonical cells for q.
func (ix *Index) decompose(label bitlabel.Label, g spatial.Region, q spatial.Rect, out *[]bitlabel.Label) {
	if !g.Overlaps(q) {
		return
	}
	if coveredBy(g, q) {
		*out = append(*out, label)
		return
	}
	if label.Len() >= ix.opts.MaxDepth {
		// Boundary cell at maximum depth: include with filtering.
		*out = append(*out, label)
		return
	}
	dim := spatial.SplitDim(label.Len(), ix.opts.Dims)
	lower, upper := g.Halves(dim)
	ix.decompose(label.MustAppend(0), lower, q, out)
	ix.decompose(label.MustAppend(1), upper, q, out)
}

// coveredBy reports whether cell g lies entirely inside the closed
// rectangle q.
func coveredBy(g spatial.Region, q spatial.Rect) bool {
	for i := range g.Lo {
		if g.Lo[i] < q.Lo[i] || g.Hi[i] > q.Hi[i] {
			return false
		}
	}
	return true
}

// resolveCell fetches one canonical cell, descending through saturated
// nodes. Children of a saturated node are probed in parallel.
func (ix *Index) resolveCell(label bitlabel.Label, q spatial.Rect) (records []spatial.Record, rounds, lookups int, err error) {
	n, found, err := ix.getNode(label, &lookups)
	rounds = 1
	if err != nil {
		return nil, 0, 0, err
	}
	if !found {
		// No data anywhere under this cell.
		return nil, rounds, lookups, nil
	}
	if !n.Saturated {
		for _, r := range n.Records {
			if q.Contains(r.Key) {
				records = append(records, r)
			}
		}
		return records, rounds, lookups, nil
	}
	// Saturated: the stored subset is unusable; descend.
	childRounds := 0
	for _, bit := range []byte{0, 1} {
		child := label.MustAppend(bit)
		recs, r, lk, childErr := ix.resolveCell(child, q)
		if childErr != nil {
			return nil, 0, 0, childErr
		}
		records = append(records, recs...)
		lookups += lk
		if r > childRounds {
			childRounds = r
		}
	}
	return records, rounds + childRounds, lookups, nil
}

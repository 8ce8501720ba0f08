package core

import (
	"fmt"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// CheckInvariants verifies, over every bucket the substrate holds
// (ix.Buckets, so it needs an enumerable substrate), the properties the
// paper's algorithms rest on:
//
//   - the leaf labels are prefix-free and their cells cover the whole space
//     (§3.2: the leaves of a space kd-tree partition it);
//   - fmd maps the leaves one-to-one onto the keys they are stored under
//     (Theorem 4): reading fmd(λ) returns the bucket labeled λ;
//   - every record has the index's dimensionality and lies inside its
//     leaf's cell;
//   - under threshold splitting, no leaf above the depth bound holds more
//     than θsplit records (data-aware splitting balances loads around ε and
//     keeps a leaf whole while dividing it would not, so it has no bound).
//
// It reads through the uncounted view, so it moves no counter, and reports
// the first violation it finds. The index must be quiescent.
func CheckInvariants(ix *Index) error {
	buckets, err := ix.Buckets()
	if err != nil {
		return err
	}
	m, rule := ix.opts.Dims, ix.splitRule()
	root := bitlabel.Root(m)
	leaves := make(map[bitlabel.Label]bool, len(buckets))
	for _, b := range buckets {
		if !root.IsPrefixOf(b.Label) {
			return fmt.Errorf("core: invariant: leaf %v does not extend the %d-dimensional root", b.Label, m)
		}
		if leaves[b.Label] {
			return fmt.Errorf("core: invariant: leaf %v is stored twice", b.Label)
		}
		leaves[b.Label] = true
	}
	// Cell volumes in units of the deepest possible cell: a label holds at
	// most bitlabel.MaxLen bits, so every depth below the root fits.
	const unitDepth = bitlabel.MaxLen - 2
	var volume uint64
	for _, b := range buckets {
		for a := b.Label; a != root; {
			if a = a.Parent(); leaves[a] {
				return fmt.Errorf("core: invariant: leaf %v is a prefix of leaf %v", a, b.Label)
			}
		}
		volume += 1 << (unitDepth - (b.Label.Len() - root.Len()))

		v, ok, err := ix.raw.Get(b.Key(m))
		if err != nil {
			return err
		}
		if stored, isBucket := v.(Bucket); !ok || !isBucket || stored.Label != b.Label {
			return fmt.Errorf("core: invariant: leaf %v is not what its key fmd(λ) = %v holds", b.Label, bitlabel.Name(b.Label, m))
		}

		cell, err := spatial.RegionOf(b.Label, m)
		if err != nil {
			return err
		}
		for i, n := 0, b.Load(); i < n; i++ {
			if p := b.KeyAt(i); len(p) != m {
				return fmt.Errorf("core: invariant: leaf %v holds a %d-dimensional record in a %d-dimensional index", b.Label, len(p), m)
			} else if !cell.Contains(p) {
				return fmt.Errorf("core: invariant: leaf %v holds record %v outside its cell %v", b.Label, p, cell)
			}
		}
		if rule.Strategy == SplitThreshold && !rule.underSplitBound(b.Load(), b.Label) {
			return fmt.Errorf("core: invariant: leaf %v holds %d records above the depth bound, θsplit is %d", b.Label, b.Load(), rule.ThetaSplit)
		}
	}
	if volume != 1<<unitDepth {
		return fmt.Errorf("core: invariant: the leaves do not cover the space (%d leaves, %g of the unit volume)",
			len(buckets), float64(volume)/(1<<unitDepth))
	}
	return nil
}

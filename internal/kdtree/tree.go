package kdtree

import (
	"fmt"
	"slices"

	"mlight/internal/bitlabel"
	"mlight/internal/spatial"
)

// Tree is an in-memory global space kd-tree with threshold splitting — the
// logical structure m-LIGHT decomposes and distributes. It serves as the
// reference model and test oracle; the distributed index never builds it.
type Tree struct {
	m          int
	thetaSplit int
	thetaMerge int
	maxDepth   int
	root       *treeNode
	size       int
}

type treeNode struct {
	cell     Cell
	children *[2]*treeNode // nil for leaves
}

// NewTree creates a reference tree for dimensionality m. thetaMerge should
// be below thetaSplit (the paper suggests θsplit/2); maxDepth bounds levels
// below the ordinary root.
func NewTree(m, thetaSplit, thetaMerge, maxDepth int) (*Tree, error) {
	if m < 1 {
		return nil, fmt.Errorf("kdtree: dimensionality %d < 1", m)
	}
	if thetaSplit < 1 || thetaMerge < 0 || thetaMerge >= thetaSplit {
		return nil, fmt.Errorf("kdtree: need 0 <= thetaMerge < thetaSplit, got %d, %d", thetaMerge, thetaSplit)
	}
	if maxDepth < 1 || m+1+maxDepth > bitlabel.MaxLen {
		return nil, fmt.Errorf("kdtree: maxDepth %d out of range for m=%d", maxDepth, m)
	}
	return &Tree{
		m:          m,
		thetaSplit: thetaSplit,
		thetaMerge: thetaMerge,
		maxDepth:   maxDepth,
		root: &treeNode{cell: Cell{
			Label:  bitlabel.Root(m),
			Region: spatial.UnitCube(m),
		}},
	}, nil
}

// Size returns the number of records stored.
func (t *Tree) Size() int { return t.size }

// NumLeaves returns the number of leaf cells.
func (t *Tree) NumLeaves() int {
	n := 0
	t.walkLeaves(t.root, func(*treeNode) bool { n++; return true })
	return n
}

// Insert adds a record, splitting the target leaf while it exceeds
// θsplit.
func (t *Tree) Insert(rec spatial.Record) error {
	if rec.Key.Dim() != t.m {
		return fmt.Errorf("kdtree: record dim %d != tree dim %d", rec.Key.Dim(), t.m)
	}
	n := t.leafFor(rec.Key)
	n.cell.Records = append(n.cell.Records, rec)
	t.size++
	return t.splitWhileOver(n)
}

func (t *Tree) splitWhileOver(n *treeNode) error {
	if n.cell.Load() <= t.thetaSplit || n.cell.Label.Len()-(t.m+1) >= t.maxDepth {
		return nil
	}
	left, right, err := SplitOnce(n.cell, t.m)
	if err != nil {
		return err
	}
	n.children = &[2]*treeNode{{cell: left}, {cell: right}}
	n.cell.Records = nil
	if err := t.splitWhileOver(n.children[0]); err != nil {
		return err
	}
	return t.splitWhileOver(n.children[1])
}

// Delete removes one record with the given key (and Data, when non-empty,
// to disambiguate duplicates). It reports whether a record was removed and
// merges sibling leaves whose combined load falls below θmerge.
func (t *Tree) Delete(key spatial.Point, data string) (bool, error) {
	if key.Dim() != t.m {
		return false, fmt.Errorf("kdtree: key dim %d != tree dim %d", key.Dim(), t.m)
	}
	path := t.pathFor(key)
	n := path[len(path)-1]
	idx := -1
	for i, r := range n.cell.Records {
		if slices.Equal(r.Key, key) && (data == "" || r.Data == data) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	n.cell.Records = append(n.cell.Records[:idx], n.cell.Records[idx+1:]...)
	t.size--
	// Merge upwards while a pair of sibling leaves is jointly underfull.
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i]
		c := parent.children
		if c == nil || c[0].children != nil || c[1].children != nil {
			break
		}
		if c[0].cell.Load()+c[1].cell.Load() >= t.thetaMerge {
			break
		}
		parent.cell.Records = append(append([]spatial.Record{}, c[0].cell.Records...), c[1].cell.Records...)
		parent.children = nil
	}
	return true, nil
}

// LeafFor returns the leaf cell covering the point.
func (t *Tree) LeafFor(key spatial.Point) (Cell, error) {
	if key.Dim() != t.m {
		return Cell{}, fmt.Errorf("kdtree: key dim %d != tree dim %d", key.Dim(), t.m)
	}
	return t.leafFor(key).cell, nil
}

func (t *Tree) leafFor(key spatial.Point) *treeNode {
	path := t.pathFor(key)
	return path[len(path)-1]
}

// pathFor returns the root-to-leaf chain of nodes covering key.
func (t *Tree) pathFor(key spatial.Point) []*treeNode {
	path := []*treeNode{t.root}
	n := t.root
	for n.children != nil {
		dim := spatial.SplitDim(n.cell.Label.Len()-(t.m+1), t.m)
		mid := (n.cell.Region.Lo[dim] + n.cell.Region.Hi[dim]) / 2
		if key[dim] < mid {
			n = n.children[0]
		} else {
			n = n.children[1]
		}
		path = append(path, n)
	}
	return path
}

// Leaves returns all leaf cells, in label order of a depth-first walk.
func (t *Tree) Leaves() []Cell {
	var out []Cell
	t.walkLeaves(t.root, func(n *treeNode) bool {
		out = append(out, n.cell)
		return true
	})
	return out
}

func (t *Tree) walkLeaves(n *treeNode, fn func(*treeNode) bool) bool {
	if n.children == nil {
		return fn(n)
	}
	if !t.walkLeaves(n.children[0], fn) {
		return false
	}
	return t.walkLeaves(n.children[1], fn)
}

// Search returns every stored record whose key lies in the closed
// rectangle.
func (t *Tree) Search(q spatial.Rect) ([]spatial.Record, error) {
	if q.Dim() != t.m {
		return nil, fmt.Errorf("kdtree: query dim %d != tree dim %d", q.Dim(), t.m)
	}
	var out []spatial.Record
	t.search(t.root, q, &out)
	return out, nil
}

func (t *Tree) search(n *treeNode, q spatial.Rect, out *[]spatial.Record) {
	if !n.cell.Region.Overlaps(q) {
		return
	}
	if n.children == nil {
		for _, r := range n.cell.Records {
			if q.Contains(r.Key) {
				*out = append(*out, r)
			}
		}
		return
	}
	t.search(n.children[0], q, out)
	t.search(n.children[1], q, out)
}

package chord

import (
	"sort"

	"mlight/internal/dht"
	"mlight/internal/overlay"
	"mlight/internal/transport"
)

// AddNodesBulk builds a complete ring from scratch in one pass. Joining
// 100k peers through AddNode routes all the way: every join looks its
// identifier up in the growing overlay, and every fixFingers routes the
// starts its previous finger does not already answer — about one per
// distinct finger, ≈ log₂ n + 1 of the 160. When the whole membership is
// known up front — the scale experiments' case — none of that traffic is
// necessary: sort the identifiers once and wire every successor list,
// predecessor pointer, and finger table directly by binary search, with
// zero RPCs. The resulting state is exactly the fixpoint that Stabilize
// would converge to.
//
// The ring must be empty (no nodes, no remote seeds) and the addresses
// must be distinct. On error no node stays registered on the transport.
func AddNodesBulk(r *Ring, addrs []transport.NodeID) ([]*overlay.Node, error) {
	return r.AddNodes(addrs, wireRing)
}

func wireRing(nodes []*overlay.Node) {
	// Ring order: ascending identifier.
	byID := make([]*node, len(nodes))
	for i, n := range nodes {
		byID[i] = n.Routing().(*node)
	}
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID().Cmp(byID[j].ID()) < 0 })
	refs := make([]ref, len(byID))
	for i, n := range byID {
		refs[i] = n.Ref()
	}

	// succAt finds the owner of target: the first identifier at or after it,
	// wrapping past zero.
	succAt := func(target dht.ID) ref {
		i := sort.Search(len(refs), func(i int) bool { return refs[i].ID.Cmp(target) >= 0 })
		if i == len(refs) {
			i = 0
		}
		return refs[i]
	}

	n := len(byID)
	for i, node := range byID {
		node.mu.Lock()
		node.pred = refs[(i-1+n)%n]
		succs := make([]ref, 0, SuccessorListLen)
		for k := 1; k <= SuccessorListLen && k <= n; k++ {
			succs = append(succs, refs[(i+k)%n])
		}
		if n == 1 {
			succs = []ref{refs[0]}
		}
		node.tab.fill(func(k int) ref { return succAt(node.ID().AddPowerOfTwo(k)) })
		node.setSuccsLocked(succs)
		node.mu.Unlock()
	}
}

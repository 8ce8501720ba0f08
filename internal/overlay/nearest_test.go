package overlay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// byFirstByte ranks identifiers by how far their first byte lies clockwise
// of the target's — enough of a Router for the ranking helper.
type byFirstByte struct{ Router }

func (byFirstByte) Closer(target, a, b dht.ID) bool { return a[0]-target[0] < b[0]-target[0] }

func TestNearestRanksDedupesAndSkips(t *testing.T) {
	o := &Overlay{router: byFirstByte{}}
	at := func(name string, pos byte) Ref { return Ref{Addr: transport.NodeID(name), ID: dht.ID{pos}} }
	cands := []Ref{at("d", 40), at("b", 20), {}, at("self", 5), at("a", 10), at("b", 20), at("gone", 15), at("c", 30)}
	gone := map[transport.NodeID]bool{"gone": true}

	names := func(refs []Ref) []string {
		out := make([]string, len(refs))
		for i, r := range refs {
			out[i] = string(r.Addr)
		}
		return out
	}
	if got, want := names(o.nearest(cands, dht.ID{0}, 10, "self", gone)), []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("nearest from 0 = %v, want %v", got, want)
	}
	// The ranking is relative to the hash: from 25 the walk wraps past zero.
	if got, want := names(o.nearest(cands, dht.ID{25}, 3, "self", nil)), []string{"c", "d", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("nearest from 25 = %v, want %v", got, want)
	}
	if got := o.nearest(nil, dht.ID{0}, 2, "self", nil); len(got) != 0 {
		t.Errorf("nearest of nothing = %v", got)
	}
}

// TestPickIsNearestOfOne: the client-mode pick is nearest's first choice on
// any duplicate-free view, ties between equally ranked members included.
func TestPickIsNearestOfOne(t *testing.T) {
	o := &Overlay{router: byFirstByte{}}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		view := make([]Ref, 1+rng.Intn(40))
		for i := range view {
			// Eight positions for up to forty members: ties are the rule.
			view[i] = Ref{Addr: transport.NodeID(fmt.Sprintf("m%d", i)), ID: dht.ID{byte(rng.Intn(8) * 32)}}
		}
		h := dht.ID{byte(rng.Intn(256))}
		if got, want := o.pick(view, h), o.nearest(view, h, 1, "", nil)[0]; got != want {
			t.Fatalf("pick(%v, %v) = %v, nearest ranks %v first", view, h, got, want)
		}
	}
}

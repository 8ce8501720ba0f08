package overlay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// ownsAll is the routing state of a node that owns every key and serves no
// routing message of its own.
type ownsAll struct{ NodeRouter }

func (ownsAll) Owns(dht.ID) bool { return true }

func (ownsAll) HandleRPC(transport.NodeID, any) (any, error) { return nil, ErrUnknownRequest }

// TestPromotionIsNeverAbsent: a node promotes its crash-window replicas — by
// a write that takes the copy as its input, and by the repair round — while
// readers ask for their keys, one at a time and in batches. The store and the
// replicas have a lock each, so a promotion is two steps; every read still
// finds each key, as the replica copy or as the promoted primary. It is a
// -race test: go test -race -run TestPromotionIsNeverAbsent.
func TestPromotionIsNeverAbsent(t *testing.T) {
	const rounds, keys, readers = 2000, 8, 2
	o := New(nil, Config{}, "scripted", 1, func(*Overlay) Router { return oneOwner{} })
	for round := 0; round < rounds; round++ {
		n := &Node{addr: "heir", o: o, rt: ownsAll{}, store: dht.NewPeerStore()}
		batch := make([]dht.Key, keys)
		for i := range batch {
			batch[i] = dht.Key(fmt.Sprintf("r%d-k%d", round, i))
			n.handleReplicate(map[dht.Key]any{batch[i]: i})
		}
		var absent, reads atomic.Int64
		check := func(key dht.Key, v any, found bool) {
			reads.Add(1)
			if !found {
				absent.Add(1)
			} else if want := int(key[len(key)-1] - '0'); v != want {
				t.Errorf("%q read as %v, want %d", key, v, want)
			}
		}
		stop := make(chan struct{})
		var wg, started sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				started.Done()
				for {
					for _, k := range batch {
						resp, err := n.HandleRPC("reader", retrieveReq{Key: k})
						if err != nil {
							t.Error(err)
							return
						}
						check(k, resp.(retrieveResp).Value, resp.(retrieveResp).Found)
					}
					resp, err := n.HandleRPC("reader", retrieveBatchReq{Keys: batch})
					if err != nil {
						t.Error(err)
						return
					}
					for i, it := range resp.(retrieveBatchResp).Items {
						check(batch[i], it.Value, it.Found)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		started.Wait()
		for _, k := range batch[:keys/2] {
			if _, err := n.Apply(k, func(cur any, ok bool) (any, bool) { return cur, ok }); err != nil {
				t.Fatal(err)
			}
		}
		o.promoteOwnedReplicas(n)
		close(stop)
		wg.Wait()
		if got := absent.Load(); got > 0 {
			t.Fatalf("round %d: %d of %d reads found a key neither promoted nor a replica", round, got, reads.Load())
		}
		if n.StoreLen() != keys || len(n.ReplicaSnapshot()) != 0 {
			t.Fatalf("round %d: %d primaries and %d replicas after promotion, want %d and none", round, n.StoreLen(), len(n.ReplicaSnapshot()), keys)
		}
	}
}

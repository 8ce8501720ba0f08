package overlay

import (
	"reflect"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// directMessages are the store-plane messages the direct path added to the
// wire: each request with its mark set, and the answer of a node that does
// not own the key. They live here, not beside the codec's own fuzz targets,
// because the codec cannot import the packages that define them.
var directMessages = []any{
	storeReq{Key: "bucket/0110", Value: []byte("payload"), Direct: true},
	retrieveReq{Key: "bucket/0110", Direct: true},
	removeReq{Key: "bucket/0110", Direct: true},
	dht.GetVerReq{Key: "bucket/0110", Direct: true},
	declinedResp{},
}

// TestDirectMessagesCrossTheWire: the mark survives the codec, so a receiver
// over TCP sees the request it was sent, and every request has a mark to set.
func TestDirectMessagesCrossTheWire(t *testing.T) {
	for _, msg := range directMessages {
		data, err := transport.Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", msg, err)
		}
		got, err := transport.Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal of %#v's encoding: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip of %#v = %#v", msg, got)
		}
	}
	for _, req := range []any{storeReq{Key: "k"}, retrieveReq{Key: "k"}, removeReq{Key: "k"}, dht.GetVerReq{Key: "k"}} {
		if m := marked(req); reflect.DeepEqual(m, req) || reflect.TypeOf(m) != reflect.TypeOf(req) {
			t.Errorf("marked(%#v) = %#v, want the same request with Direct set", req, m)
		}
	}
}

// FuzzDirectMessages seeds the value codec with the direct path's messages:
// whatever mutation of them decodes must encode again, and nothing panics.
func FuzzDirectMessages(f *testing.F) {
	for _, msg := range directMessages {
		data, err := transport.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := transport.Unmarshal(data)
		if err != nil {
			return
		}
		if _, err := transport.Marshal(v); err != nil {
			t.Fatalf("re-marshal of accepted value %#v failed: %v", v, err)
		}
	})
}

package overlay

import (
	"encoding/binary"
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
	retrieveBatchReq{Keys: []dht.Key{"bucket/0110", "bucket/0111"}, Direct: true},
	retrieveBatchResp{Items: []retrieveItem{{Value: []byte("payload"), Found: true}, {Declined: true}}},
	// One item for the two keys asked: every reply decodes on its own, so
	// the mismatch is the client's to refuse (TestBatchHostileReplies).
	retrieveBatchResp{Items: []retrieveItem{{Found: true}}},
}

// hostileBatchBytes are encodings no client of this package produces: a
// request for 10⁶ (empty) keys, which decodes — the codec cannot know the
// handler's cap — and is refused there before a reply is sized
// (TestRetrieveBatchRefusesOversizedRequest); and a reply whose only value
// claims more bytes than a frame may carry, which the codec refuses because
// they are not there.
func hostileBatchBytes(t testing.TB) [][]byte {
	tag := func(v any) []byte {
		data, err := transport.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// The zero value's encoding ends with the absent-slice byte and, for the
	// request, the Direct byte: cut them off and write the slice by hand.
	req := tag(retrieveBatchReq{})
	req = binary.AppendUvarint(append(req[:len(req)-2], 1), 1_000_000)
	req = append(req, make([]byte, 1_000_000)...) // a million zero-length keys
	req = append(req, 1)                          // Direct

	resp := tag(retrieveBatchResp{})
	resp = binary.AppendUvarint(append(resp[:len(resp)-1], 1), 1) // one item
	resp = append(resp, 1)                                        // Value present
	resp = append(resp, tag([]byte(nil))[:len("[]uint8")+1]...)   // its type tag
	resp = binary.AppendUvarint(append(resp, 1), transport.MaxFrameSize+1)
	resp = append(resp, "the bytes stop here"...)
	return [][]byte{req, resp}
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
	for _, data := range hostileBatchBytes(f) {
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

package overlay

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/transport"
)

// oneOwner is enough of a Router for a client-mode overlay: members rank by
// their first byte (byFirstByte) and every routed lookup resolves to owner.
type oneOwner struct {
	byFirstByte
	owner Ref
}

func (r oneOwner) Route(Ref, dht.ID) (Ref, error) { return r.owner, nil }

// scriptedNet answers single reads from store, whoever is asked, and batch
// frames however the test says.
type scriptedNet struct {
	transport.Interface
	store  map[dht.Key]any
	batch  func(retrieveBatchReq) (any, error)
	frames atomic.Int64
}

func (n *scriptedNet) Call(_, _ transport.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case retrieveBatchReq:
		n.frames.Add(1)
		return n.batch(r)
	case retrieveReq:
		v, ok := n.store[r.Key]
		return retrieveResp{Value: v, Found: ok}, nil
	}
	return nil, fmt.Errorf("scriptedNet: unexpected %T", req)
}

// TestBatchHostileReplies: whatever a member answers a batch frame with that
// is not one item per key — too few, too many, another message, nothing, an
// error such as the transport's refusal of a frame past MaxFrameSize — is a
// failed call: the member leaves the view, the failure is counted per key,
// and every key is read again on the single-key path. No result is ever taken
// from such a reply.
func TestBatchHostileReplies(t *testing.T) {
	keys := make([]dht.Key, 12)
	store := make(map[dht.Key]any)
	for i := range keys {
		keys[i] = dht.Key(fmt.Sprintf("hk%d", i))
		if i%3 != 0 {
			store[keys[i]] = i
		}
	}
	poison := retrieveItem{Value: "poison", Found: true}
	replies := map[string]func(retrieveBatchReq) (any, error){
		"one item short": func(r retrieveBatchReq) (any, error) {
			return retrieveBatchResp{Items: make([]retrieveItem, len(r.Keys)-1)}, nil
		},
		"one item over": func(r retrieveBatchReq) (any, error) {
			items := make([]retrieveItem, len(r.Keys)+1)
			for i := range items {
				items[i] = poison
			}
			return retrieveBatchResp{Items: items}, nil
		},
		"no items":       func(retrieveBatchReq) (any, error) { return retrieveBatchResp{}, nil },
		"a single reply": func(retrieveBatchReq) (any, error) { return retrieveResp{Value: "poison", Found: true}, nil },
		"nothing":        func(retrieveBatchReq) (any, error) { return nil, nil },
		"oversized frame": func(retrieveBatchReq) (any, error) {
			return nil, errors.New("transport: bad frame: length exceeds limit")
		},
		"unreachable peer": func(retrieveBatchReq) (any, error) { return nil, transport.ErrUnreachable },
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			net := &scriptedNet{store: store, batch: reply}
			seeds := []transport.NodeID{"member-a", "member-b", "member-c"}
			o := New(net, Config{Seeds: seeds}, "scripted", 1, func(*Overlay) Router {
				return oneOwner{owner: RefOf(seeds[0])}
			})
			got := o.GetBatch(keys, 4)
			for i, k := range keys {
				want, found := store[k]
				if got[i].Err != nil || got[i].Found != found || got[i].Value != want {
					t.Errorf("result %d (%q) = %+v, want %v, %v", i, k, got[i], want, found)
				}
			}
			frames := int(net.frames.Load())
			if frames == 0 {
				t.Fatal("no batch frame was sent: the case tested nothing")
			}
			// Every frame carried at least two keys and cost its member its
			// place; a view that loses its last member starts over from the
			// seeds.
			view := len(seeds) - frames
			if view == 0 {
				view = len(seeds)
			}
			if failed := o.DirectFailed.Load(); failed < int64(2*frames) || o.ViewSize() != view {
				t.Errorf("%s after %d hostile frames; want at least %d failed and a view of %d", o.DirectSummary(), frames, 2*frames, view)
			}
		})
	}
}

// ownsNothing is the routing state of a node that owns no key.
type ownsNothing struct{ NodeRouter }

func (ownsNothing) Owns(dht.ID) bool { return false }

// TestRetrieveBatchRefusesOversizedRequest: a frame with more keys than any
// client of this package sends is refused before a reply is sized for it.
func TestRetrieveBatchRefusesOversizedRequest(t *testing.T) {
	n := &Node{addr: "n", rt: ownsNothing{}}
	huge := retrieveBatchReq{Keys: make([]dht.Key, 1_000_000), Direct: true}
	if _, err := n.retrieveBatch(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a 10⁶-key batch was answered: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := n.retrieveBatch(huge); err == nil {
			t.Fatal("answered")
		}
	}); allocs > 4 && !raceEnabled() {
		t.Errorf("refusing a 10⁶-key batch allocated %v times: the reply was sized first", allocs)
	}
	atCap := retrieveBatchReq{Keys: make([]dht.Key, maxBatchKeys), Direct: true}
	resp, err := n.retrieveBatch(atCap)
	if err != nil {
		t.Fatalf("a batch of exactly maxBatchKeys keys: %v", err)
	}
	for i, it := range resp.(retrieveBatchResp).Items {
		if !it.Declined {
			t.Fatalf("item %d served by a node that owns nothing", i)
		}
	}
}

// TestHostileBatchBytes: the hand-built encodings of wire_test.go meet the
// codec. The oversized request is well-formed — only the handler can refuse
// it — and the reply that promises more bytes than it brings is not.
func TestHostileBatchBytes(t *testing.T) {
	hostile := hostileBatchBytes(t)
	v, err := transport.Unmarshal(hostile[0])
	if err != nil {
		t.Fatalf("the 10⁶-key request does not decode: %v", err)
	}
	if req, ok := v.(retrieveBatchReq); !ok || len(req.Keys) != 1_000_000 || !req.Direct {
		t.Fatalf("the 10⁶-key request decoded to %T", v)
	}
	if v, err := transport.Unmarshal(hostile[1]); err == nil {
		t.Fatalf("a value longer than a frame decoded to %#v", v)
	}
}

// TestBatchRoundTripAllocs is the batch frame's twin of the transport's
// framed-echo gate (transport.TestRoundTripAllocs: 6 allocations per echo,
// both ends in this process). Four keys cross a loopback socket as one call —
// one frame out, one back — and four 1.2 kB buckets return; what the trip may
// allocate beyond the echo is what the values cost: per key its string, its
// bytes, the box around them, and its share of the three slices.
func TestBatchRoundTripAllocs(t *testing.T) {
	const echoAllocs, perKey = 6, 4
	var bucket any = make([]byte, 1200) // boxed once, as a node's store holds it
	server := transport.NewTCP(transport.TCPOptions{})
	client := transport.NewTCP(transport.TCPOptions{})
	t.Cleanup(func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
		if err := server.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	id, err := server.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	err = server.Register(id, transport.HandlerFunc(func(_ transport.NodeID, req any) (any, error) {
		calls.Add(1)
		items := make([]retrieveItem, len(req.(retrieveBatchReq).Keys))
		for i := range items {
			items[i] = retrieveItem{Value: bucket, Found: true}
		}
		return retrieveBatchResp{Items: items}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	req := retrieveBatchReq{Keys: []dht.Key{"mlight/0010", "mlight/00110", "mlight/001011", "mlight/0011100"}, Direct: true}
	call := func() {
		resp, err := client.Call("batch-client", id, req)
		if items := resp.(retrieveBatchResp).Items; err != nil || len(items) != len(req.Keys) || len(items[3].Value.([]byte)) != 1200 {
			t.Fatalf("round trip = %v, %v", resp, err)
		}
	}
	call() // dial, start the worker, fill the pools
	calls.Store(0)
	allocs := testing.AllocsPerRun(500, call)
	t.Logf("4-key batch: %.1f allocs per round trip", allocs)
	if n := calls.Load(); n != 501 {
		t.Errorf("501 batches reached the handler as %d calls, want one frame each", n)
	}
	if max := float64(echoAllocs + perKey*len(req.Keys)); allocs > max && !raceEnabled() {
		t.Errorf("%.1f allocs per 4-key round trip, want <= %v (the echo's %d + %d a key)", allocs, max, echoAllocs, perKey)
	}
}

// raceEnabled is dhttest.RaceEnabled, which this package's own tests cannot
// import (dhttest imports overlay): under -race sync.Pool drops a share of
// what it is given, so the count is not pinned there.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

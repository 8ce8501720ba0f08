package wire_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
	"mlight/internal/trace"
	"mlight/internal/wire"
)

// valueCodec round-trips the scalar values the conformance suite stores
// (ints and strings) through bytes, standing in for an application codec so
// ByteDHT can participate in arbitrary decorator stacks.
type valueCodec struct{}

func (valueCodec) Marshal(v any) ([]byte, error) {
	switch x := v.(type) {
	case int:
		return append([]byte{'i'}, strconv.Itoa(x)...), nil
	case string:
		return append([]byte{'s'}, x...), nil
	default:
		return nil, fmt.Errorf("valueCodec: cannot encode %T", v)
	}
}

func (valueCodec) Unmarshal(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("valueCodec: empty payload")
	}
	switch data[0] {
	case 'i':
		return strconv.Atoi(string(data[1:]))
	case 's':
		return string(data[1:]), nil
	default:
		return nil, fmt.Errorf("valueCodec: unknown tag %q", data[0])
	}
}

// TestDecoratorStackPermutations runs the substrate conformance suite over
// every ordering of the three decorators (ByteDHT, Resilient, Counting)
// stacked on the local substrate. The decorators are designed to compose —
// Resilient and Counting never interpret stored values, ByteDHT never
// retries or counts — so the contract must hold no matter how a deployment
// layers them.
func TestDecoratorStackPermutations(t *testing.T) {
	decorate := map[string]func(dht.DHT) dht.DHT{
		"bytes": func(d dht.DHT) dht.DHT {
			return wire.NewByteDHT(d, valueCodec{})
		},
		"resilient": func(d dht.DHT) dht.DHT {
			return dht.NewResilient(d, dht.RetryPolicy{MaxAttempts: 3, Sleep: dht.NoSleep}, nil)
		},
		"counting": func(d dht.DHT) dht.DHT {
			return dht.NewCounting(d, nil)
		},
	}
	for _, perm := range permutations([]string{"bytes", "resilient", "counting"}) {
		perm := perm
		t.Run(strings.Join(perm, "-"), func(t *testing.T) {
			dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
				d := dht.DHT(dht.MustNewLocal(16))
				// perm lists the stack outside-in; wrap in reverse so
				// perm[0] ends up outermost.
				for i := len(perm) - 1; i >= 0; i-- {
					d = decorate[perm[i]](d)
				}
				return d
			})
		})
	}
}

// TestDecoratorStackCounting pins that a full stack still charges logical
// operations exactly once no matter where Counting sits.
func TestDecoratorStackCounting(t *testing.T) {
	for _, build := range []struct {
		name  string
		stack func(c *dht.Counting) dht.DHT
	}{
		{"counting-outermost", func(c *dht.Counting) dht.DHT { return c }},
		{"bytes-over-counting", func(c *dht.Counting) dht.DHT {
			return wire.NewByteDHT(c, valueCodec{})
		}},
	} {
		t.Run(build.name, func(t *testing.T) {
			var inner dht.DHT = dht.MustNewLocal(8)
			if build.name == "counting-outermost" {
				inner = wire.NewByteDHT(inner, valueCodec{})
			}
			c := dht.NewCounting(inner, nil)
			d := build.stack(c)
			for i := 0; i < 10; i++ {
				if err := d.Put(dht.Key(fmt.Sprintf("k%d", i)), i); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				if _, _, err := d.Get(dht.Key(fmt.Sprintf("k%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.Stats().DHTLookups.Load(); got != 20 {
				t.Errorf("DHTLookups = %d, want 20", got)
			}
		})
	}
}

// TestByteDHTForwardsSpans pins that ByteDHT participates in trace
// attribution: a GetSpan through the codec layer must reach the retry
// layer below with the caller's parent span intact, so attempt spans nest
// under the logical operation instead of detaching into flat orphans.
func TestByteDHTForwardsSpans(t *testing.T) {
	tc := trace.NewCollector()
	res := dht.NewResilient(dht.MustNewLocal(8), dht.RetryPolicy{MaxAttempts: 3, Sleep: dht.NoSleep}, nil)
	res.SetTracer(tc)
	d := wire.NewByteDHT(res, valueCodec{})

	if err := d.Put("k", 42); err != nil {
		t.Fatal(err)
	}
	parent := tc.Begin(0, trace.KindQuery, "lookup")
	v, found, err := d.GetSpan("k", parent)
	tc.End(parent)
	if err != nil || !found {
		t.Fatalf("GetSpan = %v, %v, %v; want 42, true, nil", v, found, err)
	}
	if got, ok := v.(int); !ok || got != 42 {
		t.Fatalf("GetSpan decoded %T %v, want int 42", v, v)
	}

	var nested int
	for _, s := range tc.Spans() {
		if s.Kind == trace.KindAttempt && s.Parent == parent {
			nested++
		}
	}
	if nested == 0 {
		t.Fatalf("no KindAttempt span nested under the caller's parent; spans: %+v", tc.Spans())
	}
}

// TestByteDHTRerunReportsTheStoredRun: a transform run twice — first against
// bytes that do not decode, discarded, then against the key as stored (here:
// absent), as a lost CAS re-runs it — must report the stored run's outcome.
// Apply used to keep the first run's codec error; ApplyBatch always reset it.
func TestByteDHTRerunReportsTheStoredRun(t *testing.T) {
	for name, apply := range map[string]func(dht.DHT, dht.Key, dht.ApplyFunc) error{
		"Apply": dht.DHT.Apply,
		"ApplyBatch": func(d dht.DHT, k dht.Key, fn dht.ApplyFunc) error {
			return dht.ApplyBatch(d, []dht.ApplyOp{{Key: k, Fn: fn}}, 1)[0]
		},
	} {
		t.Run(name, func(t *testing.T) {
			flaky := dhttest.NewFlaky(dht.MustNewLocal(4))
			d := wire.NewByteDHT(flaky, valueCodec{})
			flaky.RerunNext("k", []byte("?garbage"), true)
			err := apply(d, "k", func(any, bool) (any, bool) { return 42, true })
			if err != nil {
				t.Fatalf("the stored run succeeded, %s reported %v", name, err)
			}
			if v, _, err := d.Get("k"); err != nil || v != 42 {
				t.Fatalf("Get = %v, %v", v, err)
			}
		})
	}
}

// permutations returns every ordering of items.
func permutations(items []string) [][]string {
	if len(items) <= 1 {
		return [][]string{append([]string(nil), items...)}
	}
	var out [][]string
	for i := range items {
		rest := make([]string, 0, len(items)-1)
		rest = append(rest, items[:i]...)
		rest = append(rest, items[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{items[i]}, p...))
		}
	}
	return out
}

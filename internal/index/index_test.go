package index

import (
	"reflect"
	"strings"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/trace"
)

func TestNormalizeDefaults(t *testing.T) {
	got, err := Tuning{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims != 2 || got.MaxDepth != 28 || got.Capacity != 100 || got.MergeThreshold != 50 ||
		got.Strategy != SplitThreshold || got.Epsilon != 70 || got.MaxInFlight != dht.DefaultMaxInFlight ||
		got.CacheSize != 0 || got.Retry != nil || got.Trace != nil || got.Seed != 0 {
		t.Errorf("defaults = %+v", got)
	}
	// The merge threshold follows the capacity it was not given beside.
	if got, _ := (Tuning{Capacity: 31}).Normalize(); got.MergeThreshold != 15 {
		t.Errorf("MergeThreshold for Capacity 31 = %d, want 15", got.MergeThreshold)
	}
	// Set fields survive.
	set := Tuning{Dims: 3, MaxDepth: 9, Capacity: 8, MergeThreshold: 2, Strategy: SplitDataAware,
		Epsilon: 5, MaxInFlight: 1, CacheSize: 7, Seed: 11}
	got, err = set.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Errorf("Normalize changed set fields: %+v, want %+v", got, set)
	}
}

func TestNormalizeValidation(t *testing.T) {
	cases := []struct {
		name string
		t    Tuning
		want string // substring of the error; "" means valid
	}{
		{"zero value", Tuning{}, ""},
		{"negative dims", Tuning{Dims: -1}, "Dims"},
		{"negative depth", Tuning{MaxDepth: -1}, "MaxDepth"},
		{"negative capacity", Tuning{Capacity: -5}, "Capacity"},
		{"capacity one", Tuning{Capacity: 1}, ""},
		{"negative merge threshold", Tuning{MergeThreshold: -1}, "MergeThreshold"},
		{"merge threshold at capacity", Tuning{Capacity: 10, MergeThreshold: 10}, "MergeThreshold"},
		{"merge threshold below capacity", Tuning{Capacity: 10, MergeThreshold: 9}, ""},
		{"negative in-flight cap", Tuning{MaxInFlight: -1}, "MaxInFlight"},
		{"negative cache", Tuning{CacheSize: -1}, "CacheSize"},
		{"unknown strategy", Tuning{Strategy: SplitStrategy(99)}, "strategy"},
		{"data-aware, bad epsilon", Tuning{Strategy: SplitDataAware, Epsilon: -3}, "Epsilon"},
		{"data-aware, default epsilon", Tuning{Strategy: SplitDataAware}, ""},
		{"threshold ignores epsilon", Tuning{Strategy: SplitThreshold, Epsilon: -3}, ""},
		// The upper depth bound is each scheme's own, not this package's.
		{"depth past any label", Tuning{MaxDepth: 1000}, ""},
	}
	for _, c := range cases {
		_, err := c.t.Normalize()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted %+v", c.name, c.t)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
}

func TestResolveAppliesLeftToRight(t *testing.T) {
	if got := Resolve(); !reflect.DeepEqual(got, Tuning{}) {
		t.Errorf("Resolve() = %+v, want the zero Tuning", got)
	}
	got := Resolve(WithCapacity(10), WithCache(4), nil, WithCapacity(20), WithDims(3))
	if got.Capacity != 20 || got.CacheSize != 4 || got.Dims != 3 {
		t.Errorf("Resolve = %+v, want the later WithCapacity to win and the rest to stay", got)
	}
	// Every option sets exactly its own field.
	tc := trace.NewCollector()
	got = Resolve(
		WithDims(4), WithMaxDepth(12), WithCapacity(9), WithMergeThreshold(3), WithSplit(SplitDataAware),
		WithEpsilon(6), WithMaxInFlight(2), WithCache(5), WithRetry(dht.RetryPolicy{MaxAttempts: 3}),
		WithTrace(tc), WithSeed(8), WithSubstrate("pastry"),
	)
	if got.Dims != 4 || got.MaxDepth != 12 || got.Capacity != 9 || got.MergeThreshold != 3 ||
		got.Strategy != SplitDataAware || got.Epsilon != 6 || got.MaxInFlight != 2 || got.CacheSize != 5 ||
		got.Retry == nil || got.Retry.MaxAttempts != 3 || got.Trace != tc || got.Seed != 8 ||
		got.Substrate != "pastry" || got.Transport != nil {
		t.Errorf("Resolve = %+v", got)
	}
}

func TestStackLayers(t *testing.T) {
	local := dht.MustNewLocal(2)
	bare := Stack(local, Tuning{})
	if bare.Raw != dht.DHT(local) || bare.Resilience != nil {
		t.Errorf("without Retry the raw view must be the substrate itself: %+v", bare)
	}
	if bare.Counted.Inner() != dht.DHT(local) || bare.Counted.Stats() != bare.Stats {
		t.Error("the counted view does not wrap the raw view and feed Stats")
	}

	retried := Stack(local, Tuning{Retry: &dht.RetryPolicy{MaxAttempts: 2, Sleep: dht.NoSleep}})
	res, ok := retried.Raw.(*dht.Resilient)
	if !ok || res.Inner() != dht.DHT(local) {
		t.Fatalf("with Retry the raw view must be the retry layer over the substrate, got %T", retried.Raw)
	}
	if retried.Resilience == nil || retried.Resilience != res.Stats() {
		t.Error("Resilience is not the retry layer's meter")
	}
	if retried.Counted.Inner() != retried.Raw {
		t.Error("Counting must sit above the retry layer, so an operation is charged once")
	}
	if err := retried.Counted.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	if retried.Stats.Snapshot().DHTLookups != 1 || retried.Resilience.Snapshot().Ops != 1 {
		t.Errorf("one put = %d counted lookups, %d retry-layer ops; want 1, 1",
			retried.Stats.Snapshot().DHTLookups, retried.Resilience.Snapshot().Ops)
	}
}

package dht_test

import (
	"fmt"
	"strconv"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/dht/dhttest"
)

func TestLocalConformance(t *testing.T) {
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		return dht.MustNewLocal(8)
	})
}

// TestDurableLocalConformance runs the suite over the store's other shape: one
// shard, every mutation journaled before it lands.
func TestDurableLocalConformance(t *testing.T) {
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		w, err := dht.OpenWAL(dht.WALOptions{Dir: t.TempDir(), Codec: scalarCodec{}, CompactThreshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := w.Close(); err != nil {
				t.Errorf("wal close: %v", err)
			}
		})
		d, err := dht.NewDurableLocal(8, w)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

// scalarCodec journals the ints and strings the suite stores. (wal_test.go's
// testCodec is in the internal test package: an exported alias there would
// make this package depend on dht's test variant, which mlight-lint's loader
// does not build.)
type scalarCodec struct{}

func (scalarCodec) Marshal(v any) ([]byte, error) {
	switch x := v.(type) {
	case int:
		return append([]byte{'i'}, strconv.Itoa(x)...), nil
	case string:
		return append([]byte{'s'}, x...), nil
	}
	return nil, fmt.Errorf("scalarCodec: cannot encode %T", v)
}

func (scalarCodec) Unmarshal(data []byte) (any, error) {
	switch {
	case len(data) > 0 && data[0] == 'i':
		return strconv.Atoi(string(data[1:]))
	case len(data) > 0 && data[0] == 's':
		return string(data[1:]), nil
	}
	return nil, fmt.Errorf("scalarCodec: bad payload %q", data)
}

func TestCountingConformance(t *testing.T) {
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		return dht.NewCounting(dht.MustNewLocal(8), nil)
	})
}

func TestResilientConformance(t *testing.T) {
	// The resilient decorator must be behaviourally invisible over a
	// healthy substrate.
	dhttest.RunConformance(t, func(t *testing.T) dht.DHT {
		return dht.NewResilient(dht.MustNewLocal(8), dht.RetryPolicy{Sleep: dht.NoSleep}, nil)
	})
}

func TestLocalFaultTolerance(t *testing.T) {
	dhttest.RunFaultTolerance(t, func(t *testing.T) dht.DHT {
		return dht.MustNewLocal(8)
	})
}

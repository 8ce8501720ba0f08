package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
	"mlight/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// TestTraceGolden pins the two trace exporters byte for byte on a seeded
// multi-round query. MaxInFlight = 1 makes execution fully sequential, so
// span IDs and the logical clock — and therefore both rendered forms — are
// deterministic. A diff here means the span taxonomy, the collection
// points, or an exporter changed; regenerate with -update when the change
// is intentional.
func TestTraceGolden(t *testing.T) {
	tc := trace.NewCollector()
	ix, err := New(dht.MustNewLocal(16), index.Tuning{
		Dims:        2,
		MaxDepth:    12,
		Capacity:    4,
		MaxInFlight: 1,
		Trace:       tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 48; i++ {
		rec := spatial.Record{
			Key:  spatial.Point{rng.Float64(), rng.Float64()},
			Data: fmt.Sprintf("r%d", i),
		}
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	tc.Reset() // the golden covers the query alone, not the build

	q := spatial.Rect{Lo: spatial.Point{0.2, 0.2}, Hi: spatial.Point{0.8, 0.8}}
	res, err := ix.RangeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("query resolved in %d rounds; the golden needs a multi-round trace", res.Rounds)
	}

	var tree, events bytes.Buffer
	if err := tc.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	if err := tc.WriteTraceEvent(&events); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateTraceEvent(events.Bytes()); err != nil {
		t.Fatalf("exported trace fails its own schema: %v", err)
	}
	compareGolden(t, "trace_tree.golden", tree.Bytes())
	compareGolden(t, "trace_events.golden", events.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

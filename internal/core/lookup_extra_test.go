package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

func TestEstimateDepth(t *testing.T) {
	ix := newIndex(t, index.Tuning{Capacity: 10, MergeThreshold: 5, Seed: 1})
	// Empty index: only the root leaf, depth 0.
	d, err := ix.EstimateDepth(50)
	if err != nil || d != 0 {
		t.Fatalf("empty index depth = %d, %v", d, err)
	}
	rng := rand.New(rand.NewSource(3))
	for i, p := range randomPoints(rng, 2, 2000) {
		if err := ix.Insert(spatial.Record{Key: p, Data: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	d, err = ix.EstimateDepth(300)
	if err != nil {
		t.Fatal(err)
	}
	// 2000 records at θ=10 gives ≥200 leaves: depth at least log2(200) ≈ 8.
	if d < 8 || d > ix.Tuning().MaxDepth {
		t.Errorf("estimated depth = %d, expected within [8, %d]", d, ix.Tuning().MaxDepth)
	}
	// The estimate never exceeds the true maximum over all buckets.
	buckets, err := ix.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	trueMax := 0
	for _, b := range buckets {
		if depth := b.Label.Len() - 3; depth > trueMax {
			trueMax = depth
		}
	}
	if d > trueMax {
		t.Errorf("estimate %d above true max %d", d, trueMax)
	}
	if _, err := ix.EstimateDepth(0); err == nil {
		t.Error("samples=0 accepted")
	}
	// The probe sampling is seeded from Tuning.Seed, so on an unchanged index
	// repeated estimates are replayable bit-for-bit.
	d2, err := ix.EstimateDepth(300)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Errorf("repeated estimate = %d, first = %d; sampling not replayable", d2, d)
	}
}

// TestSeedRoundTripsThroughTuning: a facade-level WithSeed reaches the index
// that EstimateDepth draws its probe source from.
func TestSeedRoundTripsThroughTuning(t *testing.T) {
	ix, err := New(dht.MustNewLocal(4), index.Resolve(index.WithSeed(42)))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Tuning().Seed; got != 42 {
		t.Fatalf("WithSeed(42) reached the index as Seed %d", got)
	}
}

package slug_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/pkg/slug"
)

// TestBaselineArtifactDigestsPinned pins the serialized artifact (the
// SLGA envelope around the height-1 model) of every baseline on two
// small fixed graphs. It is the guard for refactors of the flat
// encoding: a change that claims to keep baseline artifacts identical
// must keep every digest here.
func TestBaselineArtifactDigestsPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"caveman6x8", graph.Caveman(6, 8, 5, 3)},
		{"ba200x3", graph.BarabasiAlbert(200, 3, 5)},
	}
	want := map[string]string{
		"sweg/caveman6x8":       "b934ded1d14004882d2ac9f051dea3bb2af75707e2a4516b02a3975af1129c9a",
		"sweg/ba200x3":          "2f79384918124a20c41afc15c1a3a6a590d5578a32f2e132404cd382695bda7e",
		"mosso/caveman6x8":      "fd800d2ffe91fb31a7758f325ee13dc2a20c73a4d1b52a4b746fa6139acd3f5c",
		"mosso/ba200x3":         "d9f072137312074ffc8b263b83e413c45072233e21779bcda7253c4171a4038f",
		"randomized/caveman6x8": "eb5d62f37847e0ea2f0e721d2d29d1c7c41000c9975849930c846908af2b10bd",
		"randomized/ba200x3":    "2d4b9f6b73931a911b297c5946c17bc5f6fbe521a3f3edf993bbd0b18d9c38ab",
		"sags/caveman6x8":       "4b01e532aa57fb7e3de8258694247150d11088e3bd9990d8fff9630b8942c369",
		"sags/ba200x3":          "6820c316ea6c958e88546f22d6341a0656414c20c7bc7194bcd8e2b7c3304105",
	}
	for _, algo := range []string{"sweg", "mosso", "randomized", "sags"} {
		for _, tg := range graphs {
			key := algo + "/" + tg.name
			art, err := slug.Get(algo).Summarize(context.Background(), tg.g,
				slug.WithIterations(6), slug.WithSeed(9))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := sha256.New()
			if _, err := art.WriteTo(h); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: artifact sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}

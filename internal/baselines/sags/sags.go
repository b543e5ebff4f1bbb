// Package sags implements SAGS (Khan et al., Computing 2015), the
// set-based approximate lossless summarizer: candidate pairs are
// selected purely by locality-sensitive hashing over neighborhoods
// (h min-hash functions in b bands) and merged with probability p,
// without computing cost reductions — which makes SAGS the fastest and
// least compact baseline in the paper's evaluation (h=30, b=10, p=0.3).
package sags

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/flatgreedy"
	"repro/internal/graph"
	"repro/internal/minhash"
	"repro/internal/model"
)

// The paper's settings: h min-hash functions in b bands of h/b rows,
// and merge probability p.
const (
	hashes = 30
	bands  = 10
	rows   = hashes / bands
	mergeP = 0.3
)

// Config holds SAGS's run options; the zero value is usable.
type Config struct {
	// OnBand, if non-nil, is invoked after each LSH band is processed
	// with the band number (1-based) and the total band count.
	OnBand func(band, bands int)
}

// Summarize runs SAGS and returns the optimal flat encoding of the
// resulting partition, as a height-1 hierarchy.
func Summarize(g *graph.Graph, seed int64, cfg Config) *model.Summary {
	s, _ := SummarizeCtx(context.Background(), g, seed, cfg)
	return s
}

// SummarizeCtx runs SAGS like Summarize but checks ctx before every LSH
// band: a cancelled context makes the run return promptly with a nil
// summary and ctx.Err().
func SummarizeCtx(ctx context.Context, g *graph.Graph, seed int64, cfg Config) (*model.Summary, error) {
	gr := flatgreedy.New(g)
	rng := rand.New(rand.NewSource(seed))

	for band := 0; band < bands; band++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Band signature: combined hash of `rows` min-hash values of the
		// supernode neighborhood.
		sigs := bandSignatures(gr, uint64(seed), band)
		buckets := make(map[uint64][]int32)
		var keys []uint64
		for id := int32(0); id < int32(len(gr.Members)); id++ {
			if gr.Alive(id) {
				if _, ok := buckets[sigs[id]]; !ok {
					keys = append(keys, sigs[id])
				}
				buckets[sigs[id]] = append(buckets[sigs[id]], id)
			}
		}
		// Iterate buckets in a deterministic order (map order would make
		// runs with equal seeds diverge).
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, key := range keys {
			bucket := buckets[key]
			if len(bucket) < 2 {
				continue
			}
			rng.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })
			// Merge consecutive pairs with probability p.
			for i := 0; i+1 < len(bucket); i += 2 {
				if rng.Float64() < mergeP {
					gr.Merge(bucket[i], bucket[i+1])
				}
			}
		}
		if cfg.OnBand != nil {
			cfg.OnBand(band+1, bands)
		}
	}
	return gr.Encode(), nil
}

// bandSignatures computes, for every live supernode, the combined hash
// of `rows` independent min-hash values of its subnode neighborhood.
func bandSignatures(gr *flatgreedy.Grouping, seed uint64, band int) []uint64 {
	sigs := make([]uint64, len(gr.Members))
	for r := 0; r < rows; r++ {
		hseed := minhash.Hash64(seed, uint64(band*97+r))
		mins := minhash.Shingles(gr.G, gr.GroupOf, len(gr.Members), hseed)
		for i := range sigs {
			sigs[i] = minhash.Hash64(sigs[i]^0x1234567, mins[i])
		}
	}
	return sigs
}

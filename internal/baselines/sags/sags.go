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

// Config holds SAGS parameters; the zero value uses the paper's
// settings.
type Config struct {
	H int     // total hash functions (default 30)
	B int     // bands (default 10); H/B rows per band
	P float64 // merge probability (default 0.3)

	// OnBand, if non-nil, is invoked after each LSH band is processed
	// with the band number (1-based) and the total band count.
	OnBand func(band, bands int)
}

func (c Config) withDefaults() Config {
	if c.H <= 0 {
		c.H = 30
	}
	if c.B <= 0 {
		c.B = 10
	}
	if c.P <= 0 {
		c.P = 0.3
	}
	return c
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
	cfg = cfg.withDefaults()
	gr := flatgreedy.New(g)
	rng := rand.New(rand.NewSource(seed))
	rows := cfg.H / cfg.B
	if rows < 1 {
		rows = 1
	}

	for band := 0; band < cfg.B; band++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Band signature: combined hash of `rows` min-hash values of the
		// supernode neighborhood.
		sigs := bandSignatures(gr, uint64(seed), band, rows)
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
				if rng.Float64() < cfg.P {
					gr.Merge(bucket[i], bucket[i+1])
				}
			}
		}
		if cfg.OnBand != nil {
			cfg.OnBand(band+1, cfg.B)
		}
	}
	return gr.Encode(), nil
}

// bandSignatures computes, for every live supernode, the combined hash
// of `rows` independent min-hash values of its subnode neighborhood.
func bandSignatures(gr *flatgreedy.Grouping, seed uint64, band, rows int) []uint64 {
	n := len(gr.Members)
	sigs := make([]uint64, n)
	for r := 0; r < rows; r++ {
		hseed := minhash.Hash64(seed, uint64(band*97+r))
		mins := make([]uint64, n)
		for i := range mins {
			mins[i] = ^uint64(0)
		}
		g := gr.G
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			f := minhash.Hash64(hseed, uint64(v))
			for _, w := range g.Neighbors(v) {
				if h := minhash.Hash64(hseed, uint64(w)); h < f {
					f = h
				}
			}
			if sn := gr.GroupOf[v]; f < mins[sn] {
				mins[sn] = f
			}
		}
		for i := range sigs {
			sigs[i] = minhash.Hash64(sigs[i]^0x1234567, mins[i])
		}
	}
	return sigs
}

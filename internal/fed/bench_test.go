package fed_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// BenchmarkNeighborsLocal times one shard call through the client —
// pooled connection, exchange, decode — against an in-process shard
// server on loopback: a point fetch and a 64-id batch. End-to-end
// federation numbers come from `go run ./bench -workload fed_read`.
func BenchmarkNeighborsLocal(b *testing.B) {
	const n = 2000
	g := graph.ErdosRenyi(n, 12000, 7)
	sh, err := slug.SummarizeSharded(context.Background(), g, 1, slug.WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := sh.Shards[0].Queryable()
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewShard(cs, serve.ShardInfo{Shards: 1, Epoch: sh.Epoch(), Nodes: n}).Handler())
	defer ts.Close()
	c, err := fed.NewClient(&fed.Peers{Epoch: sh.Epoch(), Shards: [][]string{{ts.URL}}}, fed.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 64} {
		batches := make([][]int32, 256)
		for i := range batches {
			batches[i] = make([]int32, size)
			for j := range batches[i] {
				batches[i][j] = int32(rng.Intn(n))
			}
		}
		b.Run(fmt.Sprintf("ids=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.NeighborsLocal(context.Background(), 0, batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Network-distributed federation: one sharded build served by several
// processes. The graph is summarized into shards, Split exports each
// shard as a standalone artifact plus a digest-bearing manifest, shard
// servers mount one shard each, and a coordinator — holding only the
// id maps and boundary sidecar — scatter-gathers queries across them
// with bit-identical answers to the single-process server. The demo
// then kills a shard server to show failure containment (503 naming
// the dead shard, circuit breaker opens, the healthy shard keeps
// answering) and restarts it to show recovery.
//
// Everything runs in this one process on loopback listeners, but the
// pieces are exactly the production ones: cmd/serve -shard-role uses
// the same shard surface, cmd/fedserve the same coordinator.
//
// Run with:
//
//	go run ./examples/federated
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/algos"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// shardServer is one loopback "process": a real TCP listener so we can
// kill it (dropping established connections) and restart it on the
// same port, as a supervisor would.
type shardServer struct {
	handler http.Handler
	addr    string
	srv     *http.Server
}

func startShardServer(h http.Handler) (*shardServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &shardServer{handler: h, addr: ln.Addr().String(), srv: &http.Server{Handler: h}}
	go p.srv.Serve(ln)
	return p, nil
}

func (p *shardServer) stop() { p.srv.Close() }

func (p *shardServer) restart() error {
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the old socket may linger briefly
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	p.srv = &http.Server{Handler: p.handler}
	go p.srv.Serve(ln)
	return nil
}

// getWithTimeout issues a GET whose context expires after d — every
// outbound request in the federation carries a deadline.
func getWithTimeout(url string, d time.Duration) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

func getJSON(url string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, body)
	}
	return json.Unmarshal(body, out)
}

func main() {
	// Step 1: one sharded build — the artifact every process will hold
	// a piece of.
	g := graph.BarabasiAlbert(1500, 3, 11)
	const k = 3
	ctx := context.Background()
	sh, err := slug.SummarizeSharded(ctx, g, k, slug.WithIterations(10), slug.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	epoch := sh.Epoch()
	fmt.Printf("build: %d nodes, %d edges -> %d shards, cost %d, epoch %.12s...\n",
		g.NumNodes(), g.NumEdges(), sh.NumShards(), sh.Cost(), epoch)

	// Step 2: Split exports each shard standalone plus a manifest whose
	// digests pin every piece to this exact build.
	dir, err := os.MkdirTemp("", "federated")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	man, err := sh.Split(dir, "v2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split: %d shard files + %s in %s\n", man.NumShards(), slug.ManifestFilename, dir)

	// Step 3: shard servers. Each mounts ONE shard file, digest-verified
	// against the manifest — exactly what cmd/serve -shard-role does.
	servers := make([]*shardServer, k)
	urls := make([][]string, k)
	for s := 0; s < k; s++ {
		art, err := man.OpenShard(dir, s)
		if err != nil {
			log.Fatal(err)
		}
		cs, err := art.Queryable()
		if err != nil {
			log.Fatal(err)
		}
		srv := serve.NewShard(cs, serve.ShardInfo{
			Shard: s, Shards: k, Epoch: man.Epoch, Nodes: cs.NumNodes(),
			Version: slug.EpochVersion(man.Epoch), Algorithm: man.Algorithm,
		})
		if servers[s], err = startShardServer(srv.Handler()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  shard %d: %d vertices on http://%s\n", s, cs.NumNodes(), servers[s].addr)
		urls[s] = []string{"http://" + servers[s].addr}
	}

	// Step 4: the coordinator — id maps + boundary sidecar, read back
	// from the split directory as cmd/fedserve -manifest does, plus a
	// resilient scatter-gather client. Verify refuses mismatched epochs
	// at boot; the health loop keeps re-checking and feeds the circuit
	// breakers.
	split, err := slug.OpenSplit(filepath.Join(dir, slug.ManifestFilename))
	if err != nil {
		log.Fatal(err)
	}
	client, err := fed.NewClient(&fed.Peers{Epoch: epoch, Shards: urls}, fed.Config{
		Timeout:         500 * time.Millisecond,
		Retries:         1,
		RetriesSet:      true,
		BackoffBase:     5 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		HealthInterval:  50 * time.Millisecond,
		ExpectEpoch:     epoch,
	})
	if err != nil {
		log.Fatal(err)
	}
	co, err := fed.NewCoordinator(split, client)
	if err != nil {
		log.Fatal(err)
	}
	if err := co.Verify(ctx); err != nil {
		log.Fatal(err)
	}
	stopHealth := client.StartHealth(ctx)
	defer stopHealth()
	coord, err := startShardServer(co.Handler())
	if err != nil {
		log.Fatal(err)
	}
	defer coord.stop()
	base := "http://" + coord.addr
	fmt.Printf("coordinator: verified %d shard servers, listening on %s\n\n", k, base)

	// Step 5: parity. The federation must answer exactly like the
	// single-process server over the same artifact.
	cs, err := sh.Queryable()
	if err != nil {
		log.Fatal(err)
	}
	probe := int32(3) // an early hub
	var nr struct {
		V         int32   `json:"v"`
		Degree    int     `json:"degree"`
		Neighbors []int32 `json:"neighbors"`
	}
	if err := getJSON(fmt.Sprintf("%s/neighbors?v=%d", base, probe), &nr); err != nil {
		log.Fatal(err)
	}
	want := cs.NeighborsOf(probe)
	if !slices.Equal(nr.Neighbors, want) {
		log.Fatalf("parity: federated neighbors %v, in-process %v", nr.Neighbors, want)
	}
	fmt.Printf("neighbors(%d): degree %d — matches the in-process summary\n", probe, nr.Degree)

	// PageRank scatter-gathers the adjacency once, then iterates
	// locally; the single-process run multiplies on the merged hierarchy
	// instead, so the two agree to 1e-12, not to the bit.
	var pr struct {
		Top []struct {
			V    int32   `json:"v"`
			Rank float64 `json:"rank"`
		} `json:"top"`
	}
	if err := getJSON(base+"/pagerank?d=0.85&t=20&top=3", &pr); err != nil {
		log.Fatal(err)
	}
	src := algos.OnCompiled(cs)
	rank := algos.PageRank(src, 0.85, 20)
	src.Release()
	for _, rv := range pr.Top {
		if math.Abs(rank[rv.V]-rv.Rank) > 1e-12 {
			log.Fatalf("pagerank parity: vertex %d federated %v, in-process %v", rv.V, rv.Rank, rank[rv.V])
		}
	}
	fmt.Printf("pagerank top-3 via federation: within 1e-12 of in-process (top vertex %d, rank %.5f)\n\n", pr.Top[0].V, pr.Top[0].Rank)

	// Step 6: kill shard 1. Queries owned by it fail fast with the
	// shard's identity; the other shards keep answering; /readyz
	// reports the federation degraded.
	servers[1].stop()
	fmt.Println("killed shard 1's server")
	victim, survivor := sh.GlobalID[1][0], sh.GlobalID[0][0]
	var fail any
	err = getJSON(fmt.Sprintf("%s/neighbors?v=%d", base, victim), &fail)
	fmt.Printf("  neighbors(%d) [shard 1]: %v\n", victim, err)
	if err = getJSON(fmt.Sprintf("%s/neighbors?v=%d", base, survivor), &nr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  neighbors(%d) [shard 0]: still answers, degree %d\n", survivor, nr.Degree)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := getWithTimeout(base+"/readyz", time.Second); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				fmt.Printf("  readyz: %s %s", resp.Status, body)
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Step 7: restart it. The health loop probes the endpoint back to
	// healthy, the breaker closes, and the shard's vertices answer
	// again — no coordinator restart, no client reconfiguration.
	if err := servers[1].restart(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("restarted shard 1's server")
	for time.Now().Before(deadline.Add(5 * time.Second)) {
		if err := getJSON(fmt.Sprintf("%s/neighbors?v=%d", base, victim), &nr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if nr.V != victim {
		log.Fatalf("shard 1 did not recover in time")
	}
	fmt.Printf("  neighbors(%d) [shard 1]: recovered, degree %d\n", victim, nr.Degree)

	for s := 0; s < k; s++ {
		servers[s].stop()
	}
	fmt.Println("\nRun it across real processes with:")
	fmt.Println("  slugger -in edges.txt -shards 3 -split dir -format v2")
	fmt.Println("  serve -shard-role N -manifest dir/manifest.json -addr :808N   (one per shard)")
	fmt.Println("  fedserve -manifest dir/manifest.json -peers peers.json -addr :8080")
}

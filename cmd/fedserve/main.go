// Command fedserve is the federation coordinator: it loads a split
// sharded build (slugger -split: the manifest, shard files and id-map
// sidecars, of which it keeps the id maps and boundary sidecar — the
// routing state — and the compiled union of the shard hierarchies),
// connects to a set of shard servers over HTTP (cmd/serve -shard-role
// processes, one per shard, mounting the same directory), and serves
// the familiar query surface by scatter-gathering across them. Queries
// arrive and leave in global vertex ids; the coordinator routes each to
// the owning shard, fetches shard-local answers over a compact binary
// batch protocol, and merges the boundary edges locally. PageRank runs
// on the union and needs no shard. Every answer is bit-identical to
// serving the same sharded artifact in one process.
//
// Usage:
//
//	fedserve -manifest shards/manifest.json -peers peers.json [-addr :8080]
//
// peers.json maps each shard index to one or more replica base URLs:
//
//	{"epoch": "<hex; the manifest's when absent, refused when another>",
//	 "shards": [["http://10.0.0.1:8081"], ["http://10.0.0.2:8081"]]}
//
// SIGHUP reloads the peers file without dropping the routing state or
// the circuit-breaker history of endpoints that stayed; the shard
// count must not change (that would be a different build — restart
// with its manifest instead).
//
// Every reply of shard s's server carries X-Summary-Version
// serve.ShardVersion(epoch, s), and the coordinator checks it on every
// exchange: a server of another build or shard fails the boot probe of
// every endpoint's /healthz, and later opens its circuit breaker at its
// first reply. Consecutive failures open a breaker too; only a passing
// /healthz probe closes it. Per-shard failures surface as 503 with the
// shard identity in the body; /readyz turns 503 while any shard has no
// endpoint with a closed breaker.
//
// Resilience knobs (-timeout, -retries, -hedge, ...) configure the
// scatter-gather client: per-attempt timeouts, exponential backoff
// with jitter, optional hedged requests, and consecutive-failure
// circuit breaking per endpoint.
//
// SIGINT/SIGTERM drain in-flight requests through a graceful shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fed"
	"repro/internal/serve"
	"repro/pkg/slug"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fedserve: ")

	var (
		manifest = flag.String("manifest", "", "manifest.json of a split sharded build (slugger -split): the id maps and boundary sidecar")
		peers    = flag.String("peers", "", "JSON peers file mapping shard index to replica base URLs (SIGHUP reloads it)")
		addr     = flag.String("addr", ":8080", "listen address")

		timeout  = flag.Duration("timeout", 2*time.Second, "per-attempt timeout for shard requests")
		retries  = flag.Int("retries", 2, "re-attempts after the first failed shard request (0 = fail fast)")
		hedge    = flag.Duration("hedge", 0, "launch a hedged request to a second replica when the first has not answered within this delay (0 = off; needs >1 replica per shard to matter)")
		brkFails = flag.Int("breaker-failures", 3, "consecutive failures that open an endpoint's circuit breaker")
		brkCool  = flag.Duration("breaker-cooldown", time.Second, "how long an open circuit waits before a /healthz probe may readmit the endpoint (and again after each failed probe)")
		health   = flag.Duration("health-interval", time.Second, "active /healthz probe interval per endpoint (0 = disabled: an open endpoint is then probed by the first request after its cooldown)")
		skipBoot = flag.Bool("skip-verify", false, "skip the boot-time probe of every endpoint (each reply's shard version is checked either way)")
	)
	flag.Parse()
	if *manifest == "" || *peers == "" {
		flag.Usage()
		os.Exit(2)
	}

	sh, err := slug.OpenSplit(*manifest)
	if err != nil {
		log.Fatalf("loading split build: %v", err)
	}
	epoch := sh.Epoch()
	fmt.Printf("split: %d vertices, %d shards, %d boundary edges, algorithm %s, epoch %.12s...\n",
		sh.NumNodes(), sh.NumShards(), len(sh.Boundary), sh.Algorithm(), epoch)

	p, err := fed.LoadPeers(*peers)
	if err != nil {
		log.Fatalf("loading peers: %v", err)
	}
	if p.Epoch == "" {
		p.Epoch = epoch
	}
	client, err := fed.NewClient(p, fed.Config{
		Timeout:         *timeout,
		Retries:         *retries,
		RetriesSet:      true,
		HedgeDelay:      *hedge,
		BreakerFailures: *brkFails,
		BreakerCooldown: *brkCool,
		HealthInterval:  *health,
	})
	if err != nil {
		log.Fatalf("building client: %v", err)
	}

	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		log.Fatalf("building coordinator: %v", err)
	}

	// Ctrl-C / SIGTERM cancels verification and gracefully drains the
	// server once it is listening; a second signal force-kills a stuck
	// drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if !*skipBoot {
		vctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := co.Verify(vctx)
		cancel()
		if err != nil {
			log.Fatalf("verifying shard servers: %v", err)
		}
		fmt.Printf("verified %d shard servers against epoch %.12s...\n", client.NumShards(), epoch)
	}

	stopHealth := client.StartHealth(ctx)
	defer stopHealth()
	client.WatchReload(ctx, *peers, func(err error) {
		log.Printf("peers reload: %v", err)
	})

	fmt.Printf("listening on %s (coordinating %d shards, algorithm %s)\n",
		*addr, client.NumShards(), sh.Algorithm())
	if err := serve.NewServer(co).Run(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

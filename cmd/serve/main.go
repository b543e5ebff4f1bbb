// Command serve loads a saved summary artifact (or summarizes an edge
// list on startup with any registered algorithm) and answers graph
// queries over HTTP, running directly on the compressed model via
// partial decompression — the serving scenario of Sect. VIII of the
// paper.
//
// Usage:
//
//	serve -summary out.slga [-addr :8080] [-mutable [-compact 10000]]
//	serve -summary out.slgc -mmap [-mutable]   (zero-copy boot from a v2 artifact)
//	serve -in graph.txt [-algo slugger] [-t 20] [-hb 0] [-workers 4] [-addr :8080]
//	serve -in graph.txt -shards 4 [-workers 8] [-addr :8080]
//	serve -summary union.slga -mutable   (a sharded build saved by slugger -shards k -save)
//	serve -summary out.slga -mutable -wal-dir /var/lib/slug [-fsync always]
//	serve -mutable -wal-dir /var/lib/slug   (restart: recover from the log alone)
//	serve -shard-role 2 -manifest shards/manifest.json [-addr :8082]
//
// With -shards k > 1 the graph is partitioned into k shards summarized
// concurrently under the -workers budget. The sharded build is served
// like any other artifact, from one compiled summary: the union of the
// shard hierarchies, with every cross-shard edge a leaf–leaf p-edge.
// -shards builds serve immutably (-mutable is rejected). A sharded
// build saved by slugger -shards k -save is that union, an ordinary
// artifact: -summary serves it like any other, -mutable included (its
// compactions re-summarize the whole graph unsharded).
//
// With -shard-role N the process serves exactly one shard of a split
// sharded build (from slugger -split or slug.Split): the shard's
// artifact file is located through -manifest, cross-checked against
// the manifest's byte digest, and mounted behind the shard surface —
// every reply carries the shard's version, a digest of the federation
// epoch and the shard index, as X-Summary-Version, /stats reports the
// shard's identity under "shard_role", and POST /batch/neighbors
// answers the coordinator's compact binary batches. Shard serving is immutable and single-shard by
// construction, so -shard-role is incompatible with -summary, -in,
// -mutable, -shards, -mmap and -wal-dir. A cmd/fedserve coordinator
// scatter-gathers across a set of these processes.
//
// -summary also auto-detects v2 zero-copy artifacts (from slugger
// -format v2): without -mmap the file is read, checksummed and served
// from an in-memory buffer in the same layout ("v2-heap"); with -mmap
// it is memory-mapped and served straight off the mapping — no decode,
// no recompile, boot cost independent of summary size ("v2-mapped").
// -mmap composes with -mutable: the overlay absorbs updates on top of
// the mapped base exactly as on a compiled one. /stats reports the
// serving format, the mapped byte count, and the measured
// boot-to-first-query latency under "artifact".
//
// Builds route through the unified pkg/slug API, so every algorithm's
// output can be served and all build knobs (-t, -hb, -seed, -workers)
// reach the summarizer. With -mutable the served summary is live: POST
// /update applies edge insertions/deletions to a delta overlay without
// recompiling, and once the overlay reaches -compact corrections a
// background re-summarize swaps in a fresh base. Compaction rebuilds
// use the same -t/-hb/-seed/-workers knobs — when serving a loaded
// -summary artifact mutably, pass the flags it was originally built
// with, or the first compaction re-summarizes under the defaults.
//
// With -wal-dir every acknowledged update is appended to a write-ahead
// log (fsynced per -fsync) before it becomes visible, compactions
// checkpoint the rebuilt base into the same directory, and a restart —
// clean or after a crash — recovers the exact acknowledged state. A
// populated -wal-dir can be served without -summary/-in. -max-inflight
// bounds concurrent request execution, shedding the excess with 429
// instead of queueing without limit. Endpoints:
//
//	GET  /healthz
//	GET  /readyz
//	GET  /stats
//	GET  /neighbors?v=3          (or v=3,7,9 for a batch)
//	POST /neighbors              ({"v":[3,7,9]} JSON batch)
//	POST /batch/neighbors        (binary batch: "NBRQ" + u32 count + i32 ids)
//	GET  /hasedge?u=1&v=2
//	GET  /pagerank?d=0.85&t=20&top=10
//	POST /update                 ({"u":1,"v":2,"delete":false} or {"updates":[...]})
//
// SIGINT/SIGTERM drain in-flight requests through a graceful shutdown
// instead of killing them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pkg/slug"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	bootStart := time.Now()

	var (
		summary = flag.String("summary", "", "saved artifact file to serve (from slugger -save)")
		mmap    = flag.Bool("mmap", false, "memory-map a v2 compiled artifact (-summary, written by slugger -format v2) and serve straight off the mapping: no decode, no recompile at boot")
		in      = flag.String("in", "", "edge-list file to summarize and serve")
		algo    = flag.String("algo", "slugger", "summarization algorithm when summarizing -in: "+strings.Join(slug.Algorithms(), ", "))
		t       = flag.Int("t", 20, "merging iterations T when summarizing -in, and for -mutable compaction rebuilds (slugger, sweg)")
		hb      = flag.Int("hb", 0, "height bound Hb when summarizing -in and for -mutable compaction rebuilds, 0 = unbounded (slugger)")
		seed    = flag.Int64("seed", 0, "random seed when summarizing -in and for -mutable compaction rebuilds")
		workers = flag.Int("workers", 1, "group-scheduler worker pool size when summarizing -in and for -mutable compaction rebuilds")
		mutable = flag.Bool("mutable", false, "accept live edge updates via POST /update")
		compact = flag.Int("compact", 10000, "with -mutable: overlay corrections that trigger a background re-summarize (0 = never: the overlay then grows without bound and per-update cost grows with it; pair with manual offline compaction)")
		shards  = flag.Int("shards", 1, "partition -in into this many shards, summarize them concurrently and serve the result (1 = unsharded; incompatible with -mutable)")
		addr    = flag.String("addr", ":8080", "listen address")

		shardRole = flag.Int("shard-role", -1, "serve exactly one shard of a split sharded build: the shard index to mount (requires -manifest; incompatible with every other serving mode)")
		manifest  = flag.String("manifest", "", "with -shard-role: path to the manifest.json written by the split, used to locate and digest-verify the shard artifact")

		walDir      = flag.String("wal-dir", "", "with -mutable: write-ahead-log directory — acknowledged updates are persisted there and recovered on restart (with a populated directory, -summary/-in are optional: the state comes from the log)")
		fsync       = flag.String("fsync", "always", "with -wal-dir: fsync policy — always (no acknowledged update is ever lost), interval[=dur] (batched, bounded loss window), never (OS writeback)")
		maxInflight = flag.Int("max-inflight", 0, "bound on concurrently executing requests; excess requests queue briefly and are then shed with 429 (0 = unbounded)")
	)
	flag.Parse()
	if *manifest != "" && *shardRole < 0 {
		log.Fatal("-manifest locates a shard for -shard-role: pass both")
	}
	if *shardRole >= 0 {
		if *manifest == "" {
			log.Fatal("-shard-role needs -manifest to locate and verify the shard artifact")
		}
		if *summary != "" || *in != "" || *mutable || *shards > 1 || *mmap || *walDir != "" {
			log.Fatal("-shard-role mounts one verified shard of a split build: it is incompatible with -summary, -in, -mutable, -shards, -mmap and -wal-dir")
		}
	}
	if *shards > 1 && *mutable {
		// Reject the flag conflict before any work: a large sharded build
		// can take minutes and would otherwise be thrown away.
		log.Fatal("sharded serving is immutable: -shards and -mutable are incompatible (serve unsharded, or rebuild shards offline)")
	}
	if *walDir != "" && !*mutable {
		log.Fatal("-wal-dir persists live updates: it requires -mutable")
	}
	if *walDir != "" && *shards > 1 {
		log.Fatal("-wal-dir and -shards are incompatible (sharded serving is immutable)")
	}
	if *mmap && *summary == "" {
		log.Fatal("-mmap boots from a saved v2 artifact: it requires -summary")
	}
	if *mmap && *shards > 1 {
		log.Fatal("-mmap serves one mapped summary: incompatible with -shards")
	}

	// Ctrl-C / SIGTERM cancels a running build and gracefully drains the
	// server once it is listening. After the first signal the handler is
	// deregistered, so a second Ctrl-C force-kills a stuck drain instead
	// of being swallowed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if *shardRole >= 0 {
		m, err := slug.LoadManifest(*manifest)
		if err != nil {
			log.Fatalf("loading manifest: %v", err)
		}
		if *shardRole >= m.NumShards() {
			log.Fatalf("-shard-role %d out of range: the manifest describes %d shards", *shardRole, m.NumShards())
		}
		art, err := m.OpenShard(filepath.Dir(*manifest), *shardRole)
		if err != nil {
			log.Fatalf("opening shard %d: %v", *shardRole, err)
		}
		start := time.Now()
		cs, err := art.Queryable()
		if err != nil {
			log.Fatalf("compiling shard %d: %v", *shardRole, err)
		}
		fmt.Printf("shard %d/%d verified and compiled: %d vertices / %d supernodes / %d superedges in %s (epoch %.12s...)\n",
			*shardRole, m.NumShards(), cs.NumNodes(), cs.NumSupernodes(), cs.NumSuperedges(),
			time.Since(start).Round(time.Millisecond), m.Epoch)
		srv := serve.NewShard(cs, serve.ShardInfo{
			Shard: *shardRole, Shards: m.NumShards(), Epoch: m.Epoch, Nodes: cs.NumNodes(), Algorithm: m.Algorithm,
		}).WithArtifact("shard-mount", 0, bootStart)
		fmt.Printf("listening on %s (shard role %d of %d, algorithm %s)\n", *addr, *shardRole, m.NumShards(), m.Algorithm)
		if err := srv.Run(ctx, *addr); err != nil {
			log.Fatal(err)
		}
		fmt.Println("shut down cleanly")
		return
	}

	opts := []slug.Option{
		slug.WithIterations(*t),
		slug.WithHeightBound(*hb),
		slug.WithSeed(*seed),
		slug.WithWorkers(*workers),
		slug.WithCompactionThreshold(*compact),
	}

	var art slug.Artifact
	switch {
	case *summary != "" && *mmap:
		m, err := slug.OpenMapped(*summary)
		if err != nil {
			log.Fatalf("mapping artifact: %v", err)
		}
		defer func() {
			if err := m.Close(); err != nil {
				log.Printf("closing mapped artifact: %v", err)
			}
		}()
		fmt.Printf("mapped %s: %d bytes, algorithm %s (%s)\n",
			*summary, m.MappedBytes(), m.Algorithm(), m.Format())
		art = m
	case *summary != "":
		a, err := slug.Load(*summary)
		if err != nil {
			log.Fatalf("loading artifact: %v", err)
		}
		art = a
	case *in != "":
		g, err := graph.LoadEdgeList(*in)
		if err != nil {
			log.Fatalf("loading %s: %v", *in, err)
		}
		fmt.Printf("input: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
		start := time.Now()
		if *shards > 1 {
			art, err = slug.SummarizeSharded(ctx, g, *shards, append(opts, slug.WithAlgorithm(*algo))...)
		} else {
			art, err = slug.Get(*algo).Summarize(ctx, g, opts...)
		}
		if err != nil {
			log.Fatalf("summarizing with %s into %d shard(s): %v", *algo, *shards, err)
		}
		rel := 0.0
		if g.NumEdges() > 0 {
			rel = float64(art.Cost()) / float64(g.NumEdges())
		}
		fmt.Printf("summarized with %s in %s: %d shard(s), cost %d (%.1f%% of input)\n",
			art.Algorithm(), time.Since(start).Round(time.Millisecond), *shards, art.Cost(), 100*rel)
	default:
		if *walDir == "" {
			flag.Usage()
			os.Exit(2)
		}
		// No -summary, no -in, but a WAL directory: recover everything —
		// base and update suffix — from the log alone.
	}

	var (
		srv      *serve.Server
		algoName string
	)
	if *mutable {
		if *walDir != "" {
			pol, err := slug.ParseSyncPolicy(*fsync)
			if err != nil {
				log.Fatalf("parsing -fsync: %v", err)
			}
			opts = append(opts, slug.WithDurability(*walDir, pol))
		}
		start := time.Now()
		up, err := slug.NewUpdatable(art, opts...)
		if err != nil {
			log.Fatalf("making artifact updatable: %v", err)
		}
		defer func() {
			if err := up.Close(); err != nil {
				log.Printf("closing updatable summary (WAL flush): %v", err)
			}
		}()
		cs, err := up.Queryable()
		if err != nil {
			log.Fatalf("compiling artifact: %v", err)
		}
		fmt.Printf("compiled %d vertices / %d supernodes / %d superedges in %s\n",
			cs.NumNodes(), cs.NumSupernodes(), cs.NumSuperedges(),
			time.Since(start).Round(time.Millisecond))
		if ds := up.Durability(); ds.Enabled {
			fmt.Printf("durable: WAL at %s (fsync %s), recovered checkpoint=%v + %d update batches\n",
				ds.Dir, ds.Policy, ds.RecoveredCheckpoint, ds.RecoveredRecords)
			if ds.RecoveryTruncated {
				fmt.Println("durable: torn log tail truncated during recovery (unacknowledged records only)")
			}
		}
		srv = serve.NewLive(up.Live())
		algoName = up.Algorithm()
		fmt.Printf("mutable: POST /update accepted (compaction threshold %d)\n", *compact)
	} else {
		start := time.Now()
		cs, err := art.Queryable()
		if err != nil {
			log.Fatalf("compiling artifact: %v", err)
		}
		fmt.Printf("compiled %d vertices / %d supernodes / %d superedges in %s\n",
			cs.NumNodes(), cs.NumSupernodes(), cs.NumSuperedges(),
			time.Since(start).Round(time.Millisecond))
		srv = serve.New(cs)
		algoName = art.Algorithm()
	}
	if *maxInflight > 0 {
		// Queue as many as run; a queued request waits at most a second
		// before the client is told to back off.
		srv.WithAdmission(*maxInflight, *maxInflight, time.Second)
		fmt.Printf("admission: max %d in-flight requests, overflow answers 429\n", *maxInflight)
	}
	// Artifact provenance for /stats: how the served model is backed and
	// how long boot-to-first-query takes on that path.
	format, mappedBytes := "v1-compiled", int64(0)
	switch a := art.(type) {
	case *slug.Mapped:
		format, mappedBytes = a.Format(), a.MappedBytes()
	case *slug.Sharded:
		format = "v1-sharded"
	case nil:
		format = "wal-recovered"
	}
	srv.WithArtifact(format, mappedBytes, bootStart)
	fmt.Printf("listening on %s (algorithm %s)\n", *addr, algoName)
	if err := srv.WithAlgorithm(algoName).Run(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

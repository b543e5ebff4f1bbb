package slug_test

// FuzzLoadArtifact drives arbitrary bytes through the unified artifact
// loader — which dispatches across the v1 SLGA envelope and the
// zero-copy v2 SLGC layout, and must reject a bare SLGR model stream (a
// payload encoding, not an artifact) — and through the
// mmap boot path. The invariant under fuzz: loaders
// either reject the input with an error or return an artifact whose
// query surface is safe to exercise; they never panic or index out of
// bounds, whatever the bytes claim.

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/pkg/slug"
)

func FuzzLoadArtifact(f *testing.F) {
	g := graph.Caveman(3, 5, 4, 1)
	ctx := context.Background()
	seed := func(w io.WriterTo) {
		var b bytes.Buffer
		if _, err := w.WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		// A torn prefix of every format is a seed too: the loaders must
		// diagnose truncation, not trust lengths.
		f.Add(b.Bytes()[:b.Len()/2])
	}

	hier, err := slug.Get("slugger").Summarize(ctx, g, slug.WithSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	seed(hier)
	flat, err := slug.Get("sags").Summarize(ctx, g, slug.WithSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	seed(flat)
	// A sharded build saves its union: leaf–leaf p-edges across shards.
	sharded, err := slug.SummarizeSharded(ctx, g, 2, slug.WithSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	seed(sharded)
	var v2 bytes.Buffer
	if _, err := slug.WriteCompiledTo(&v2, hier); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:v2.Len()/2])
	bare, _ := core.Summarize(g, core.Config{T: 2, Seed: 1})
	seed(bare)
	f.Add([]byte{})
	f.Add([]byte("SLGC"))
	f.Add([]byte("SLGAxxxx"))

	// probe exercises a loaded artifact enough to catch unsafe indexing
	// without unbounded work on attacker-chosen sizes.
	probe := func(a slug.Artifact) {
		_ = a.Algorithm()
		_ = a.Cost()
		cs, err := a.Queryable()
		if err != nil || cs.NumNodes() == 0 || cs.NumNodes() > 1<<16 {
			return
		}
		n := int32(cs.NumNodes())
		_ = cs.NeighborsOf(0)
		_ = cs.NeighborsOf(n - 1)
		_ = cs.HasEdge(0, n-1)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		art, err := slug.Load(path)
		if err == nil && bytes.HasPrefix(data, []byte("SLGR")) {
			t.Fatal("bare SLGR payload stream loaded as an artifact")
		}
		if err == nil {
			probe(art)
		}
		if m, err := slug.OpenMapped(path); err == nil {
			probe(m)
			m.Close()
		}
	})
}
